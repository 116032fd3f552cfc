"""Certificates: generated subalgebra, Gram matrix, regularity and nilcone.

The Gram certificate pairs free-Lie-basis evaluations at z under the
Killing form; its rank detects whether the subalgebra generated by the
k- and p-parts of z is all of g.  Full mode uses every Lyndon word up to
the degree cap; reduced mode pairs only the filtration's spanning vectors
of g(z).  Both vector sets span g(z), so the two Gram matrices always
have equal rank.  Which mode a certificate uses is fixed by dim g alone:
full while d(dim g) <= GRAM_LIMIT, that is up to dim g = 13, and reduced
from dim g = 14 up.

A certificate computes g(z) once and carries it as `subalgebra`, which
reduced mode pairs and the verify suites reuse; its `element` is the one
split of z into x and y, which full mode evaluates words at and
nilcone_test builds ad x and ad y from.  is_k_regular and nilcone_test
share that pipeline.  The nilpotency of ad x and ad y is tested on their
Gaussian-integer rows from ad_matrix.

Reduced mode runs the exact filtration, generated_subalgebra.  Its
degree 2 is the single bracket [y, x], the only first-step bracket that
antisymmetry leaves able to enlarge span{x, y}.  Its span is _FractionSpan,
the Fraction-backed echelon it alone keeps until ROADMAP item 2; every
other elimination here (the word echelon, every rank profile, the
derived series) runs on the Gaussian-integer EchelonSpan, and
derived_series brackets over the Gaussian integers too.

Full mode runs no exact filtration.  Evaluation at (x, y) is a Lie
homomorphism and the Lyndon words of degree <= m span the free Lie
algebra up to degree m, so their values span the filtration step g_m.
One EchelonSpan of the word values, taken in Lyndon order up to the
first degree that adds nothing, thus gives g(z), its per-degree dims and
its stabilization degree; the pivot words S form its basis.  The word
values V up to the cap are V_S C with C of full row rank, so the Gram
G = C^T G_SS C has the rank of G_SS, the Gram restricted to the pivot
words inside the cap; its rank profile, with the pivots mapped back to
word indices, is the one G itself has, as each non-pivot word row and
column depends on earlier pivot ones.  The full Gram is still built for
gram_hash.

In both modes the Gram is built over the Gaussian integers (see
linalg.pairing_matrix) and kept as a MatrixQ of Scalars; full mode pairs
the word rows of WordEvaluator.gaussian_value as they are.

stabilization_bound runs the filtration's one loop, _filtration, over F_p
for p = MODP_PRIME, sending i to MODP_I, a square root of -1 mod p.  That
is a ring map which commutes with the bracket and under which ranks can
only drop, so a full F_p span at degree m proves that the exact filtration
stabilizes by degree m.  When p divides a denominator, or the F_p span
falls short of dim g, it proves nothing and returns None; its caller then
runs generated_subalgebra.

The same F_p filtration cross-checks every full-mode certificate, in a
different arithmetic and on a different spanning set: a full F_p span
with a deficient word span, or a word stabilization degree above the F_p
bound, is a SoundnessError, and a full word span that the F_p pass leaves
open is compared with the exact generated_subalgebra.  Reduced mode keeps
its check of the Gram rank against the exact filtration's dim.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations, islice
from typing import Optional, Sequence

from .algebra import (
    CartanDecomposition,
    ElementZ,
    LieAlgebra,
    ad_matrix,
    bracket,
    centralizer,
    decompose,
    gaussian_bracket,
    modp_bracket,
)
from .errors import GramSizeError, SoundnessError
from .linalg import (
    EchelonSpan,
    MatrixQ,
    ModpSpan,
    gaussian_dot,
    gaussian_matmul,
    gaussian_matvec,
    gaussian_rows,
    gaussian_scalar,
    nilpotency_exponent,
    pairing_matrix,
    rank_profile,
)
from .scalar import ONE, ZERO, Scalar
from .words import WordEvaluator, lyndon_basis, witt_dimension

# Largest full-mode Gram side: d(13) = 1377 fits and d(14) = 2538 does
# not, so certificates pair every Lyndon word up to dim g = 13 (sl(2),
# sl(3), su(2,1)) and only g(z)'s spanning vectors from dim g = 14 up
# (sl(4), sl(5)), where the full side runs into the thousands.
GRAM_LIMIT = 1500

# stabilization_bound's field F_p: a prime p = 1 mod 4 and s with
# s^2 = -1 mod p, the image of i; a test checks that p is prime
MODP_PRIME = 1_000_000_009
MODP_I = 430_477_711


def _check_modp_constants(p: int, s: int) -> None:
    """Raise SoundnessError unless p = 1 mod 4 and s^2 = -1 mod p, without
    which i -> s is no ring map and a bound over F_p proves nothing."""
    if p % 4 != 1 or (s * s + 1) % p:
        raise SoundnessError(
            f"i -> {s} mod {p} is not a ring map: need p = 1 mod 4 and "
            "s^2 = -1 mod p")


_check_modp_constants(MODP_PRIME, MODP_I)

VERDICT_REGULAR = "k-regular"
VERDICT_NIL = "nil-k"
VERDICT_NEITHER = "neither"


@dataclass
class SubalgebraReport:
    """g(z) computed by the filtration g_{m+1} = g_m + [x, g_m] + [y, g_m],
    or in full mode by the echelon of the word values that spans each g_m.

    span, the echelon that computed it (the word echelon's EchelonSpan,
    or the filtration's _FractionSpan), and element, the split
    z = x + y it started from, stay out of to_dict(), repr and equality;
    reduced_basis, its RREF rows computed on first use, is what span-only
    checks read instead of eliminating basis again, and certificates read
    x and y from element instead of splitting z again.
    """

    basis: list
    dim: int
    stabilization_degree: int
    per_degree_dims: list
    span: EchelonSpan | _FractionSpan = field(repr=False, compare=False)
    element: ElementZ = field(repr=False, compare=False)

    @cached_property
    def reduced_basis(self) -> list:
        return [tuple(r) for r in self.span.rref()[1]]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "stabilization_degree": self.stabilization_degree,
            "per_degree_dims": list(self.per_degree_dims),
        }


def _filtration(x, y, span, bracket_of, limit: int) -> Optional[tuple]:
    """Run g_{m+1} = g_m + [x, g_m] + [y, g_m] from span{x, y} in span,
    bracketing with bracket_of: (per_degree_dims, m) with m the degree it
    stabilized at, or None if it ran past degree limit.

    Degree 2 is the one bracket [y, x].  The table is antisymmetric (as
    validate checks for every catalog and loaded algebra), so [x, x] and
    [y, y] vanish and [x, y] = -[y, x]: of the four first-step brackets,
    only [y, x] can enlarge the span, and it vanishes when x and y are
    dependent.  It is inserted where bracketing the frontier (x, y) with
    x, then y, would insert it, so the basis, and every Gram paired on
    it, is the one the full step gives.  Each later degree brackets the
    vectors the previous one added with x and y.
    """
    span.add(x)
    span.add(y)
    per_degree = [span.dim]
    frontier = []
    if span.dim == 2:
        w = bracket_of(y, x)
        if span.add(w):
            frontier.append(w)
    m = 1
    while frontier:
        per_degree.append(span.dim)
        m += 1
        if m > limit:
            return None
        new = []
        for v in frontier:
            for gen in (x, y):
                w = bracket_of(gen, v)
                if span.add(w):
                    new.append(w)
        frontier = new
    return per_degree, m


class _FractionSpan:
    """EchelonSpan as it stood over Fraction-backed Scalars, kept only for
    generated_subalgebra until ROADMAP item 2 frees its peak-RSS bound.

    Keeps the original inserted vectors (as a basis) alongside echelon
    rows, sorted by pivot column, for fast reduction; rref() derives the
    reduced form from those rows on demand.  A full span (dim = ambient_dim)
    answers at once: contains is True and rref() the identity.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.basis = []  # vectors as inserted, linearly independent
        self._reduced = []  # list of (pivot_index, row)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    def _reduce(self, v: Sequence[Scalar]) -> list:
        w = list(v)
        for pc, row in self._reduced:
            c = w[pc]
            if c:
                for j in range(pc, self.ambient_dim):
                    w[j] = w[j] - c * row[j]
        return w

    def contains(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError(f"expected length {self.ambient_dim}, got {len(v)}")
        return self.full or all(not a for a in self._reduce(v))

    def add(self, v: Sequence[Scalar]) -> bool:
        """Insert v; returns True if it enlarged the span."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"expected length {self.ambient_dim}, got {len(v)}")
        w = self._reduce(v)
        for pc in range(self.ambient_dim):
            if w[pc]:
                inv = w[pc].inverse()
                row = [inv * a for a in w]
                self._reduced.append((pc, row))
                self._reduced.sort(key=lambda t: t[0])
                self.basis.append(tuple(v))
                return True
        return False

    def rref(self) -> tuple:
        """(pivot_cols, rows) of the reduced row echelon form, which depends
        only on the span; back-substitutes copies, leaving the span as is."""
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

    def equals(self, other) -> bool:
        return (
            self.dim == other.dim
            and all(other.contains(v) for v in self.basis)
        )


def generated_subalgebra(alg: LieAlgebra, cd: CartanDecomposition,
                         z: Sequence[Scalar]) -> SubalgebraReport:
    """Iterate the filtration (see _filtration) from span{x, y} until it
    stabilizes, exactly over Q(i).

    Stabilization past dim g - 1 is a soundness bug, not an input error,
    and raises SoundnessError.
    """
    ez = decompose(cd, z)
    n = alg.dim
    span = _FractionSpan(n)  # moves to EchelonSpan with ROADMAP item 2
    run = _filtration(ez.x, ez.y, span, partial(bracket, alg), max(n - 1, 1))
    if run is None:
        raise SoundnessError(
            f"filtration failed to stabilize by degree {n - 1}; "
            "this contradicts the stabilization bound and is a bug")
    per_degree, m = run
    return SubalgebraReport(
        basis=list(span.basis),
        dim=span.dim,
        stabilization_degree=m,
        per_degree_dims=per_degree,
        span=span,
        element=ez,
    )


def stabilization_bound(alg: LieAlgebra, cd: CartanDecomposition,
                        z: Sequence[Scalar]) -> Optional[int]:
    """A proven bound on generated_subalgebra(...).stabilization_degree
    when g(z) = g, from the same filtration run over F_p; else None.

    With p = MODP_PRIME dividing neither S of gaussian_table() nor the
    common denominator D of x and y, i -> s = MODP_I is a ring map from
    Z[i][1/SD] onto F_p (s^2 = -1) that commutes with the bracket.  The
    image of a spanning set of g_m spans the F_p filtration's W_m (up to
    the units S and D), and ranks can only drop under the map, so
    dim W_m <= dim g_m.  A full W at degree m thus gives g_m = g, and the
    exact filtration stabilizes by degree m.

    None when p divides S or D, when the F_p span falls short of dim g
    (g(z) != g, or p is unlucky for z), or when the F_p run passes
    degree max(dim g - 1, 1); the exact filtration then decides.
    """
    ez = decompose(cd, z)
    return _modp_bound(alg, ez.x, ez.y)


def _modp_bound(alg: LieAlgebra, x: Sequence[Scalar],
                y: Sequence[Scalar]) -> Optional[int]:
    """stabilization_bound for the split z = x + y."""
    p, s = MODP_PRIME, MODP_I
    den, rows = gaussian_rows((x, y))
    if den % p == 0 or alg.gaussian_table()[0] % p == 0:
        return None
    x, y = (tuple((re + im * s) % p for re, im in row) for row in rows)
    n = alg.dim
    span = ModpSpan(n, p)
    run = _filtration(x, y, span, modp_bracket(alg, p, s), max(n - 1, 1))
    if run is None or not span.full:
        return None
    return run[1]


def _word_subalgebra(alg: LieAlgebra, ez: ElementZ,
                     ev: WordEvaluator) -> tuple:
    """(report, pivots): g(z) from one EchelonSpan of the Lyndon word
    values at (x, y), in Lyndon order, and the indices of the pivot words
    in that order.

    The words of degree <= m span g_m, so the span after each degree is
    the filtration's, and the first degree that adds nothing ends it; a
    full span ends it at once, as the next degree can add nothing.  The
    basis is the pivot words' values, each times its denominator from
    gaussian_value.  Stabilization past dim g - 1 raises SoundnessError,
    as in generated_subalgebra.
    """
    n = alg.dim
    limit = max(n - 1, 1)
    span = EchelonSpan(n)
    pivots, per_degree = [], []
    index = 0
    for group in lyndon_basis(limit + 1):
        dim = span.dim
        for w in group:
            if not span.full and span.add_row(ev.gaussian_value(w)[1]):
                pivots.append(index)
            index += 1
        if per_degree and span.dim == dim:
            break
        per_degree.append(span.dim)
        if span.full:
            break
    if len(per_degree) > limit:
        raise SoundnessError(
            f"word values failed to stabilize by degree {limit}; "
            "this contradicts the stabilization bound and is a bug")
    report = SubalgebraReport(
        basis=list(span.basis),
        dim=span.dim,
        stabilization_degree=len(per_degree),
        per_degree_dims=per_degree,
        span=span,
        element=ez,
    )
    return report, pivots


def centralizer_in_k(alg: LieAlgebra, cd: CartanDecomposition,
                     report: SubalgebraReport) -> list:
    """Basis of {u in k : [u, w] = 0 for all w in g(z)}."""
    return centralizer(alg, cd.k_basis, report.reduced_basis)


@dataclass
class GramCertificate:
    degree_cap: int
    mode: str  # "full" | "reduced"
    gram: MatrixQ
    rank: int
    dim_g: int
    verdict: Optional[str] = None
    witnesses: Optional[dict] = None
    # pivot profile from the rank computation; kept so verdict assembly
    # does not have to eliminate the same matrix twice
    pivot_rows: Optional[list] = None
    pivot_cols: Optional[list] = None
    # g(z) as the certificate computed it once; not part of to_dict() or
    # gram_hash()
    subalgebra: Optional[SubalgebraReport] = field(default=None, repr=False)

    def gram_hash(self) -> str:
        body = ";".join(str(e) for e in self.gram.entries)
        header = f"{self.gram.rows}x{self.gram.cols}:"
        return hashlib.sha256((header + body).encode()).hexdigest()

    def to_dict(self, include_matrix: bool = False) -> dict:
        d = {
            "degree_cap": self.degree_cap,
            "mode": self.mode,
            "rank": self.rank,
            "dim_g": self.dim_g,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "gram_hash": self.gram_hash(),
        }
        if include_matrix:
            d["gram"] = [
                [e.to_quad() for e in self.gram.row(i)]
                for i in range(self.gram.rows)
            ]
        return d


def _check_jobs(jobs: int) -> None:
    """jobs is accepted for compatibility and has no effect, but must be >= 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def _full_gram_fits(degree_cap: int) -> bool:
    """d(cap) <= GRAM_LIMIT, summing Witt dimensions only until they pass
    it, so a huge cap costs no more than cap 14."""
    side = 0
    for j in range(1, degree_cap + 1):
        side += witt_dimension(j)
        if side > GRAM_LIMIT:
            return False
    return True


def gram_matrix(alg: LieAlgebra, cd: CartanDecomposition, z: Sequence[Scalar],
                degree_cap: Optional[int] = None,
                mode: str = "full") -> GramCertificate:
    """Exact symmetric Gram matrix of Killing pairings; verdict unset.

    Computes g(z) once and attaches it as cert.subalgebra: from the word
    echelon in full mode, from the exact filtration in reduced mode.  The
    entries are Killing pairings over the Gaussian integers.  In full mode
    the rank profile is eliminated on the pivot words' Gram G_SS alone
    (see the module docstring), in reduced mode on the whole Gram, whose
    side is dim g(z).
    """
    n = alg.dim
    cap = n if degree_cap is None else degree_cap
    if cap < 1:
        raise ValueError("degree cap must be >= 1")
    if mode not in ("full", "reduced"):
        raise ValueError(f"unknown gram mode {mode!r}")
    if mode == "full" and not _full_gram_fits(cap):
        raise GramSizeError(
            f"full Gram side d({cap}) exceeds limit {GRAM_LIMIT}; "
            "lower the degree cap or use reduced mode")
    if mode == "full":
        ez = decompose(cd, z)
        ev = WordEvaluator(alg, ez.x, ez.y)
        report, pivots = _word_subalgebra(alg, ez, ev)
        words = [w for group in lyndon_basis(cap) for w in group]
        gram = pairing_matrix([ev.gaussian_value(w) for w in words],
                              alg.gaussian_killing())
        inside = [i for i in pivots if i < len(words)]
        rank, rows, cols = rank_profile(MatrixQ(
            len(inside), len(inside),
            [gram[a, b] for a in inside for b in inside]))
        rows = [inside[r] for r in rows]
        cols = [inside[c] for c in cols]
    else:
        report = generated_subalgebra(alg, cd, z)
        scale, cleared = gaussian_rows(report.basis)
        gram = pairing_matrix([(scale, row) for row in cleared],
                              alg.gaussian_killing())
        rank, rows, cols = rank_profile(gram)
    return GramCertificate(degree_cap=cap, mode=mode, gram=gram,
                           rank=rank, dim_g=n, pivot_rows=rows,
                           pivot_cols=cols, subalgebra=report)


def _feasible_mode(alg: LieAlgebra) -> str:
    return "full" if _full_gram_fits(alg.dim) else "reduced"


def _check_words_over_fp(alg: LieAlgebra, cd: CartanDecomposition,
                         report: SubalgebraReport) -> None:
    """Cross-check g(z) from the word echelon against the filtration over
    F_p run on the same x and y; disagreement is a bug and raises
    SoundnessError.  A full word span that the F_p pass leaves open (an
    unlucky prime, or p dividing a denominator) is compared with the
    exact filtration instead."""
    n = alg.dim
    ez = report.element
    bound = _modp_bound(alg, ez.x, ez.y)
    if bound is not None:
        if report.dim != n:
            raise SoundnessError(
                f"the F_p filtration spans g but the word values span dim "
                f"{report.dim} of {n}; the two disagree, which is a bug")
        if report.stabilization_degree > bound:
            raise SoundnessError(
                f"the word values stabilize at degree "
                f"{report.stabilization_degree}, past the F_p bound {bound}; "
                "the two disagree, which is a bug")
    elif report.dim == n:
        exact = generated_subalgebra(alg, cd, ez.z).to_dict()
        if exact != report.to_dict():
            raise SoundnessError(
                f"the exact filtration gives {exact} and the word values "
                f"{report.to_dict()}; the two disagree, which is a bug")


def _certify(alg: LieAlgebra, cd: CartanDecomposition,
             z: Sequence[Scalar]) -> GramCertificate:
    """Gram in the feasible mode with verdict k-regular or neither.

    Full mode cross-checks its g(z) over F_p (_check_words_over_fp);
    reduced mode checks the rank verdict against dim g(z) from the exact
    filtration.  Disagreement is a bug and raises SoundnessError.
    """
    cert = gram_matrix(alg, cd, z, mode=_feasible_mode(alg))
    gram_says = cert.rank == alg.dim
    if cert.mode == "full":
        _check_words_over_fp(alg, cd, cert.subalgebra)
    elif gram_says != (cert.subalgebra.dim == alg.dim):
        raise SoundnessError(
            f"Gram rank {cert.rank} and filtration dim "
            f"{cert.subalgebra.dim} disagree on regularity "
            f"(dim g = {alg.dim}); this is a bug")
    cert.verdict = VERDICT_REGULAR if gram_says else VERDICT_NEITHER
    return cert


def is_k_regular(alg: LieAlgebra, cd: CartanDecomposition, z: Sequence[Scalar],
                 jobs: int = 1) -> GramCertificate:
    """Regularity certificate: Gram rank equals dim g iff g(z) = g.

    A k-regular verdict carries as its witness the first dim g independent
    rows of the Gram and, within them, the first independent columns: a
    nonsingular minor, principal since the Gram is symmetric.  In full
    mode both are the pivot words of the word echelon, found by
    eliminating their Gram alone.  jobs has no effect.
    """
    _check_jobs(jobs)
    cert = _certify(alg, cd, z)
    if cert.verdict == VERDICT_REGULAR:
        cert.witnesses = {"minor_rows": cert.pivot_rows,
                          "minor_cols": cert.pivot_cols}
    return cert


def nilcone_test(alg: LieAlgebra, cd: CartanDecomposition, z: Sequence[Scalar],
                 jobs: int = 1) -> GramCertificate:
    """Membership in the K-unstable cone.

    z is in the cone iff the Gram matrix vanishes identically and both
    ad x and ad y are nilpotent; the nilpotency exponents are recorded
    as witnesses.  Otherwise the verdict is k-regular or neither, with
    no witness.  x and y are those the certificate's filtration split z
    into, and ad y is not built once ad x is known not to be nilpotent.
    jobs has no effect.
    """
    _check_jobs(jobs)
    cert = _certify(alg, cd, z)
    if cert.gram.is_zero():
        ez = cert.subalgebra.element
        ex = nilpotency_exponent(ad_matrix(alg, ez.x)[1])
        ey = None if ex is None else nilpotency_exponent(
            ad_matrix(alg, ez.y)[1])
        if ey is not None:
            cert.verdict = VERDICT_NIL
            cert.witnesses = {"ad_x_exponent": ex, "ad_y_exponent": ey}
    return cert


def derived_series(alg: LieAlgebra, basis: Sequence) -> list:
    """Dims of D^0 >= D^1 >= ... with D^{k+1} = span[D^k, D^k], until stable.

    Only the spans matter, so each D^k is bracketed on the reduced echelon
    basis of its span, whose entries stay small, cleared by the lcm of its
    denominators and bracketed over the Gaussian integers (gaussian_bracket
    returns S [u, v], a positive multiple with the same span).  Raises
    ValueError if span(basis) is not closed under the bracket; all of g is
    closed by definition, so a full span skips that check, and each D^{k+1}
    stops bracketing once it is all of g.
    """
    n = alg.dim
    span = EchelonSpan(n)
    span.extend(basis)
    current = gaussian_rows(span.rref()[1])[1]
    if not span.full:
        for u in current:
            for v in current:
                if not span.contains_row(gaussian_bracket(alg, u, v)):
                    raise ValueError("basis is not closed under the bracket")
    dims = [len(current)]
    while True:
        span = EchelonSpan(n)
        for u, v in combinations(current, 2):
            if span.add_row(gaussian_bracket(alg, u, v)) and span.full:
                break
        dims.append(span.dim)
        if span.dim == len(current) or not span.dim:
            return dims
        current = gaussian_rows(span.rref()[1])[1]


def _trace(rows: list, den: int) -> Scalar:
    """The trace of a square matrix of (re, im) integer pairs over den."""
    diagonal = [r[i] for i, r in enumerate(rows)]
    return gaussian_scalar((sum(re for re, _ in diagonal),
                            sum(im for _, im in diagonal)), den)


def _power_traces(alg: LieAlgebra, z: Sequence[Scalar]):
    """tr((ad z)^m) for m = 1, ..., 2 dim g, from one running product over
    the Gaussian integers: ad_matrix gives D ad z as integer rows, and the
    m-th trace is divided back by D^m."""
    scale, a = ad_matrix(alg, z)
    p, den = a, scale
    yield _trace(p, den)
    for _ in range(2 * alg.dim - 1):
        p, den = gaussian_matmul(p, a), den * scale
        yield _trace(p, den)


def power_trace(alg: LieAlgebra, z: Sequence[Scalar], m: int) -> Scalar:
    """tr((ad z)^m), exact."""
    if not 1 <= m <= 2 * alg.dim:
        raise ValueError(f"power {m} outside [1, {2 * alg.dim}]")
    return next(islice(_power_traces(alg, z), m - 1, None))


@dataclass(frozen=True)
class DegreeBounds:
    n: int
    two_n: int
    dim_p: int
    r: int

    def to_dict(self) -> dict:
        return {"n": self.n, "two_n": self.two_n, "dim_p": self.dim_p, "r": self.r}


def degree_bounds(alg: LieAlgebra, cd: CartanDecomposition) -> DegreeBounds:
    """Invariant-generation degree bound r = C(2n, 2) * dim p."""
    n = alg.dim
    return DegreeBounds(n=n, two_n=2 * n, dim_p=cd.dim_p,
                        r=math.comb(2 * n, 2) * cd.dim_p)


@dataclass(frozen=True)
class Separator:
    kind: str  # "word-pair" | "power-trace"
    detail: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.detail}


def separation_probe(alg: LieAlgebra, cd: CartanDecomposition,
                     z: Sequence[Scalar], z_prime: Sequence[Scalar],
                     degree_cap: int = 6) -> Optional[Separator]:
    """Search for an invariant separating z from z'.

    Returns the first word pair (or trace power) whose values differ, or
    None if no separator exists at this cap.  None is inconclusive: it is
    never a proof that the two elements lie on the same K-orbit.
    """
    ez = decompose(cd, z)
    ezp = decompose(cd, z_prime)
    ev = WordEvaluator(alg, ez.x, ez.y)
    evp = WordEvaluator(alg, ezp.x, ezp.y)
    two_n = 2 * alg.dim
    # a pair needs deg t + deg t' <= 2n, so a word of degree 2n or more
    # pairs with nothing; words come in ascending degree, so each loop
    # stops at its first word past the bound
    words = [w for group in lyndon_basis(min(degree_cap, two_n - 1))
             for w in group]
    # B cleared once by the lcm K of its denominators and each word taken
    # as its evaluator's integer row over its denominator, so that
    # B(v_a, v_b) = (K B u_a) . u_b / (K d_a d_b), B symmetric, with one
    # integer matvec per word and side
    form_scale, form_rows = alg.gaussian_killing()
    for a, wa in enumerate(words):
        if 2 * wa.degree > two_n:
            break
        da, ua = ev.gaussian_value(wa)
        dpa, upa = evp.gaussian_value(wa)
        bua = gaussian_matvec(form_rows, ua)
        bupa = gaussian_matvec(form_rows, upa)
        for wb in words[a:]:
            if wa.degree + wb.degree > two_n:
                break
            db, ub = ev.gaussian_value(wb)
            dpb, upb = evp.gaussian_value(wb)
            lhs = gaussian_dot(bua, ub)
            rhs = gaussian_dot(bupa, upb)
            den = form_scale * da * db
            den_p = form_scale * dpa * dpb
            # lhs / den != rhs / den_p, cross-multiplied
            if any(p * den_p != q * den for p, q in zip(lhs, rhs)):
                return Separator("word-pair", {
                    "t": str(wa), "t_prime": str(wb),
                    "value": str(gaussian_scalar(lhs, den)),
                    "value_prime": str(gaussian_scalar(rhs, den_p)),
                })
    traces = zip(_power_traces(alg, z), _power_traces(alg, z_prime))
    for m, (lhs, rhs) in enumerate(traces, 1):
        if lhs != rhs:
            return Separator("power-trace", {
                "power": m, "value": str(lhs), "value_prime": str(rhs),
            })
    return None
