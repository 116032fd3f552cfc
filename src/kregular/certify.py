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
reduced mode pairs, the regularity cross-check reads and the verify
suites reuse; its `element` is the one split of z into x and y, which
full mode evaluates words at and nilcone_test builds ad x and ad y from.
is_k_regular and nilcone_test share that pipeline.  The filtration's
degree 2 is the single bracket [y, x], the only first-step bracket that
antisymmetry leaves able to enlarge span{x, y}.  The nilpotency of ad x
and ad y is tested on their Gaussian-integer rows from ad_matrix.

In both modes the Gram is built over the Gaussian integers (see
linalg.pairing_matrix) and kept as a MatrixQ of Scalars; full mode pairs
the word rows of WordEvaluator.gaussian_value as they are.  Its rank is
eliminated only up to dim g: G = V^T B V with V made of dim g-vectors,
so rank G <= dim g is a theorem about the Gram, not a cut-off.

stabilization_bound runs the filtration's one loop, _filtration, over F_p
for p = MODP_PRIME, sending i to MODP_I, a square root of -1 mod p.  That
is a ring map which commutes with the bracket and under which ranks can
only drop, so a full F_p span at degree m proves that the exact filtration
stabilizes by degree m.  When p divides a denominator, or the F_p span
falls short of dim g, it proves nothing and returns None; its caller then
runs generated_subalgebra.  Certificates never read it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import Optional, Sequence

from .algebra import (
    CartanDecomposition,
    ElementZ,
    LieAlgebra,
    ad_matrix,
    bracket,
    centralizer,
    decompose,
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
    reduced_basis,
)
from .scalar import Scalar
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
    """g(z) computed by the filtration g_{m+1} = g_m + [x, g_m] + [y, g_m].

    span, the filtration's own EchelonSpan, and element, the split
    z = x + y it started from, stay out of to_dict(), repr and equality;
    reduced_basis, its RREF rows computed on first use, is what span-only
    checks read instead of eliminating basis again, and certificates read
    x and y from element instead of splitting z again.
    """

    basis: list
    dim: int
    stabilization_degree: int
    per_degree_dims: list
    span: EchelonSpan = field(repr=False, compare=False)
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


def generated_subalgebra(alg: LieAlgebra, cd: CartanDecomposition,
                         z: Sequence[Scalar]) -> SubalgebraReport:
    """Iterate the filtration (see _filtration) from span{x, y} until it
    stabilizes, exactly over Q(i).

    Stabilization past dim g - 1 is a soundness bug, not an input error,
    and raises SoundnessError.
    """
    ez = decompose(cd, z)
    n = alg.dim
    span = EchelonSpan(n)
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
    p, s = MODP_PRIME, MODP_I
    ez = decompose(cd, z)
    den, rows = gaussian_rows((ez.x, ez.y))
    if den % p == 0 or alg.gaussian_table()[0] % p == 0:
        return None
    x, y = (tuple((re + im * s) % p for re, im in row) for row in rows)
    n = alg.dim
    span = ModpSpan(n, p)
    run = _filtration(x, y, span, modp_bracket(alg, p, s), max(n - 1, 1))
    if run is None or not span.full:
        return None
    return run[1]


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
    # g(z) from the certificate's one filtration; not part of to_dict()
    # or gram_hash()
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

    Runs the filtration once, in either mode, and attaches g(z) as
    cert.subalgebra.  The entries are Killing pairings over the Gaussian
    integers, and the rank profile stops at dim g independent rows.
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
    report = generated_subalgebra(alg, cd, z)
    if mode == "full":
        ez = report.element
        ev = WordEvaluator(alg, ez.x, ez.y)
        pairs = [ev.gaussian_value(w) for group in lyndon_basis(cap)
                 for w in group]
    else:
        scale, cleared = gaussian_rows(report.basis)
        pairs = [(scale, row) for row in cleared]
    gram = pairing_matrix(pairs, alg.gaussian_killing())
    # G = V^T B V with V's columns in g, so rank G <= dim g: elimination
    # stops there (not at dim g(z), which the rank-bound check tests)
    rank, rows, cols = rank_profile(gram, max_rank=n)
    return GramCertificate(degree_cap=cap, mode=mode, gram=gram,
                           rank=rank, dim_g=n, pivot_rows=rows,
                           pivot_cols=cols, subalgebra=report)


def _feasible_mode(alg: LieAlgebra) -> str:
    return "full" if _full_gram_fits(alg.dim) else "reduced"


def _certify(alg: LieAlgebra, cd: CartanDecomposition,
             z: Sequence[Scalar]) -> GramCertificate:
    """Gram in the feasible mode with verdict k-regular or neither.

    The rank verdict is cross-checked against dim g(z) from the same
    certificate; disagreement is a bug and raises SoundnessError.
    """
    cert = gram_matrix(alg, cd, z, mode=_feasible_mode(alg))
    dim_gz = cert.subalgebra.dim
    gram_says = cert.rank == alg.dim
    if gram_says != (dim_gz == alg.dim):
        raise SoundnessError(
            f"Gram rank {cert.rank} and filtration dim {dim_gz} disagree "
            f"on regularity (dim g = {alg.dim}); this is a bug")
    cert.verdict = VERDICT_REGULAR if gram_says else VERDICT_NEITHER
    return cert


def is_k_regular(alg: LieAlgebra, cd: CartanDecomposition, z: Sequence[Scalar],
                 jobs: int = 1) -> GramCertificate:
    """Regularity certificate: Gram rank equals dim g iff g(z) = g.

    A k-regular verdict carries as its witness the first dim g independent
    rows of the Gram and, within them, the first independent columns: a
    nonsingular minor, principal since the Gram is symmetric.  Finding
    them ends the elimination, since no Gram has rank above dim g; the
    rows after them are never reduced.  jobs has no effect.
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
    basis of its span (see reduced_basis), whose entries stay small, not on
    the vectors as given.  Raises ValueError if span(basis) is not closed
    under the bracket; all of g is closed by definition, so a full span
    skips that check, and each D^{k+1} stops bracketing once it is all of g.
    """
    n = alg.dim
    span = EchelonSpan(n)
    span.extend(basis)
    current = [tuple(r) for r in span.rref()[1]]
    if not span.full:
        for u in current:
            for v in current:
                if not span.contains(bracket(alg, u, v)):
                    raise ValueError("basis is not closed under the bracket")
    dims = [len(current)]
    while True:
        nxt = reduced_basis(
            (bracket(alg, current[i], current[j])
             for i in range(len(current)) for j in range(i + 1, len(current))),
            n)
        dims.append(len(nxt))
        if len(nxt) == len(current) or not nxt:
            return dims
        current = nxt


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
