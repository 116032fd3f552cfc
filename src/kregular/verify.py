"""Seeded verification suites tying the library's guarantees to checks.

Every suite is exact: a single failing comparison is a real failure, not
noise.  Reports are deterministic functions of (algebra, suite, seed,
samples); jobs is accepted for compatibility and has no effect.

The stabilization suite first asks certify.stabilization_bound, which
runs the filtration over F_p: a full F_p span at degree m proves that the
exact filtration stabilizes by degree m, since the map from Q(i) to F_p
commutes with the bracket and can only lower ranks.  A sample with such a
bound of at most max(dim g - 1, 1) passes.  Every other sample, where p
divides a denominator, the F_p span falls short of dim g or the bound is
too large, runs the exact generated_subalgebra as the only check, with the
same record and the same SoundnessError handling.
"""

from __future__ import annotations

import io as _io
import csv
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    CartanDecomposition,
    LieAlgebra,
    ad_matrix,
    bracket,
    decompose,
    killing_pair,
)
from .certify import (
    VERDICT_NIL,
    _power_traces,
    centralizer_in_k,
    degree_bounds,
    derived_series,
    generated_subalgebra,
    is_k_regular,
    nilcone_test,
    stabilization_bound,
)
from .errors import SoundnessError
from .linalg import (
    MatrixQ,
    gaussian_dot,
    gaussian_matvec,
    gaussian_rows,
    gaussian_scalar,
    is_nilpotent_matrix,
    linear_combination,
    pairing_matrix,
    solve_in_span,
    vec_is_zero,
    vec_scale,
)
from .roots import (
    RestrictedRootDatum,
    build_regular,
    catalog_datum,
    construct_regular,
    zeta_value,
)
from .scalar import ZERO, I, Scalar
from .words import (
    DualWordEvaluator,
    lyndon_basis,
    witt_dimension,
)

SUITES = ("stabilization", "invariance", "regularity", "nilcone",
          "appendix", "witt", "bounds", "all")

DEFAULT_BOX = 3


@dataclass
class PropertyRecord:
    name: str
    statement: str
    checks_run: int = 0
    failures: int = 0
    first_counterexample: Optional[str] = None

    def check(self, ok: bool, counterexample: str = "") -> None:
        self.checks_run += 1
        if not ok:
            self.failures += 1
            if self.first_counterexample is None:
                self.first_counterexample = counterexample

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "checks_run": self.checks_run,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
        }


@dataclass
class VerifyReport:
    suite: str
    algebra: str
    seed: int
    samples: int
    records: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def failures(self) -> int:
        return sum(r.failures for r in self.records)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def body_dict(self) -> dict:
        """Deterministic report body: everything except timing."""
        return {
            "suite": self.suite,
            "algebra": self.algebra,
            "seed": self.seed,
            "samples": self.samples,
            "failures": self.failures,
            "records": [r.to_dict() for r in self.records],
        }

    def to_dict(self) -> dict:
        d = self.body_dict()
        d["wall_time_s"] = round(self.wall_time_s, 3)
        return d

    def to_csv(self) -> str:
        buf = _io.StringIO()
        w = csv.writer(buf)
        w.writerow(["suite", "algebra", "seed", "samples", "property",
                    "checks_run", "failures", "first_counterexample"])
        for r in self.records:
            w.writerow([self.suite, self.algebra, self.seed, self.samples,
                        r.name, r.checks_run, r.failures,
                        r.first_counterexample or ""])
        return buf.getvalue()


def sample_element(alg: LieAlgebra, rng: random.Random,
                   box: int = DEFAULT_BOX):
    """Random element with integer real/imaginary coordinates in [-box, box]."""
    return tuple(
        Scalar(rng.randint(-box, box), rng.randint(-box, box))
        for _ in range(alg.dim)
    )


def _sl2_curated(alg: LieAlgebra):
    h, e, f = (alg.basis_vector(i) for i in range(3))
    zero = (ZERO,) * 3
    witness = tuple(a + I * (b + c) for a, b, c in zip(h, e, f))  # h + i(e+f)
    e_minus_f = tuple(a - b for a, b in zip(e, f))
    return [zero, witness, e, e_minus_f, h]


def _suite_stabilization(alg, cd, rng, samples, box, datum) -> list:
    rec = PropertyRecord(
        "stabilization",
        "the filtration of the subalgebra generated by the k- and p-parts "
        "stabilizes by step dim(g) - 1",
    )
    limit = max(alg.dim - 1, 1)
    for _ in range(samples):
        z = sample_element(alg, rng, box)
        # a bound proven over F_p settles the sample; the exact filtration
        # decides every sample it leaves open
        bound = stabilization_bound(alg, cd, z)
        if bound is not None and bound <= limit:
            rec.check(True)
            continue
        try:
            rep = generated_subalgebra(alg, cd, z)
            rec.check(rep.stabilization_degree <= limit,
                      f"z with stabilization {rep.stabilization_degree}")
        except SoundnessError as exc:
            rec.check(False, str(exc))
    return [rec]


def _suite_regularity(alg, cd, rng, samples, box, datum) -> list:
    rank_bound = PropertyRecord(
        "rank-bound",
        "Gram rank never exceeds dim g(z), with equality when g(z) = g",
    )
    agreement = PropertyRecord(
        "verdict-agreement",
        "the Gram-rank verdict and the filtration-dimension verdict agree "
        "on regularity for every input",
    )
    n = alg.dim
    # (z, certificate or None), as the constructed element carries one
    elements = [(sample_element(alg, rng, box), None)
                for _ in range(samples)]
    if datum is not None:
        try:
            ez = construct_regular(alg, cd, datum)
            elements.append((ez.z, ez.certificate))
        except SoundnessError as exc:
            agreement.check(False, str(exc))
    for z, cert in elements:
        try:
            cert = cert or is_k_regular(alg, cd, z)
        except SoundnessError as exc:
            agreement.check(False, str(exc))
            continue
        agreement.check(True)
        dim_gz = cert.subalgebra.dim
        ok = cert.rank <= dim_gz and (dim_gz != n or cert.rank == n)
        rank_bound.check(ok, f"rank {cert.rank}, dim g(z) {dim_gz}")
    return [agreement, rank_bound]


def _residual_sums(duals, form):
    """((a, b), res, den) for a <= b, the residual B(v_a, d_b) + B(d_a, v_b)
    being res / den with res an (re, im) integer pair and B(u, w) =
    u . (F w).  duals are the (den, value_row, deriv_row) triples of
    DualWordEvaluator.gaussian_value, and form the (scale, rows) of F
    cleared by gaussian_rows; each F v and F d is taken once."""
    scale, rows = form
    images = [(gaussian_matvec(rows, v), gaussian_matvec(rows, d))
              for _, v, d in duals]
    for a, (den_a, v_a, d_a) in enumerate(duals):
        for b in range(a, len(duals)):
            fv_b, fd_b = images[b]
            re1, im1 = gaussian_dot(v_a, fd_b)
            re2, im2 = gaussian_dot(d_a, fv_b)
            yield (a, b), (re1 + re2, im1 + im2), scale * den_a * duals[b][0]


def _suite_invariance(alg, cd, rng, samples, box, datum) -> list:
    residual = PropertyRecord(
        "residual-zero",
        "the first-order change of every word-pair invariant along every "
        "k-direction vanishes exactly",
    )
    equivariance = PropertyRecord(
        "equivariance",
        "the derivative of a word evaluation along ([u,x],[u,y]) equals "
        "[u, value] for every k-basis direction u",
    )
    words = [w for group in lyndon_basis(4) for w in group]
    killing = alg.gaussian_killing()
    for _ in range(samples):
        z = sample_element(alg, rng, box)
        ez = decompose(cd, z)
        scale, leaves = gaussian_rows((ez.x, ez.y))
        for u in cd.k_basis:
            # the oracle: D_u ad u as integer rows from the structure
            # table, so that [u, w] = (ad_rows w) / D_u
            ad_scale, ad_rows = ad_matrix(alg, u)
            dx, dy = (tuple(gaussian_scalar(c, ad_scale * scale)
                            for c in gaussian_matvec(ad_rows, leaf))
                      for leaf in leaves)
            dev = DualWordEvaluator(alg, ez.x, ez.y, dx, dy)
            duals = [dev.gaussian_value(w) for w in words]
            for w, (_, value, deriv) in zip(words, duals):
                # deriv / den == (ad_rows value) / (D_u den), cross-multiplied
                equivariance.check(
                    tuple((re * ad_scale, im * ad_scale) for re, im in deriv)
                    == gaussian_matvec(ad_rows, value), f"word {w}")
            for (a, b), res, den in _residual_sums(duals, killing):
                ok = res == (0, 0)
                residual.check(ok, "" if ok else (
                    f"pair ({words[a]},{words[b]}), residual "
                    f"{gaussian_scalar(res, den)}"))
    return [residual, equivariance]


def _is_nil_by_solvability(alg, rep) -> bool:
    """Independent route from the report of g(z): its derived series
    reaches 0 and ad is nilpotent on every basis element.  The basis is
    enough by Lie's theorem (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 4.1): a solvable g(z) tensor C has ad(g(z))
    upper-triangular in one basis of g tensor C, where ad w is nilpotent
    iff its diagonal, linear in w, is 0; that holds on all of g(z) once
    it holds on a basis.  An empty g(z) has derived series [0, 0] and no
    basis, so it is nil."""
    if derived_series(alg, rep.reduced_basis)[-1] != 0:
        return False
    return all(is_nilpotent_matrix(ad_matrix(alg, w)[1]) for w in rep.basis)


def _suite_nilcone(alg, cd, rng, samples, box, datum) -> list:
    cartan = PropertyRecord(
        "cartan-criterion",
        "vanishing Gram with nilpotent ad x, ad y agrees with solvability "
        "of g(z) plus elementwise ad-nilpotency",
    )
    oracle = PropertyRecord(
        "hand-oracle",
        "for sl(2): both routes agree with the closed-form test "
        "x = 0 and B(y, y) = 0",
    )
    traces = PropertyRecord(
        "power-traces-vanish",
        "tr((ad z)^m) = 0 for every m <= 2 dim g whenever the nilcone "
        "verdict is positive",
    )
    is_sl2 = alg.family == "split-sl" and alg.dim == 3
    elements = list(_sl2_curated(alg)) if is_sl2 else []
    elements.extend(sample_element(alg, rng, box) for _ in range(samples))
    for z in elements:
        try:
            cert = nilcone_test(alg, cd, z)
        except SoundnessError as exc:
            cartan.check(False, str(exc))
            continue
        via_gram = cert.verdict == VERDICT_NIL
        via_solv = _is_nil_by_solvability(alg, cert.subalgebra)
        cartan.check(via_gram == via_solv,
                     f"gram route {via_gram}, solvability route {via_solv}")
        if is_sl2:
            ez = cert.subalgebra.element
            via_hand = vec_is_zero(ez.x) and not killing_pair(alg, ez.y, ez.y)
            oracle.check(via_gram == via_hand,
                         f"gram route {via_gram}, hand oracle {via_hand}")
        if via_gram:
            for m, trace in enumerate(_power_traces(alg, z), 1):
                traces.check(not trace, f"power {m}")
    records = [cartan, traces]
    if is_sl2:
        records.insert(1, oracle)
    return records


def _killing_dual_in_a(alg, datum, gram, root):
    """h_nu in a with B(h, h_nu) = nu(h) for every h in the a-basis, given
    the Killing Gram of the a-basis."""
    coeffs = solve_in_span(gram, list(root.values))
    if coeffs is None:
        return None
    return linear_combination(coeffs, datum.a_basis, alg.dim)


def _suite_appendix(alg, cd, rng, samples, box, datum) -> list:
    certified = PropertyRecord(
        "construct-certified",
        "the deterministic construction yields a certified K-regular element",
    )
    empty_centralizer = PropertyRecord(
        "centralizer-empty",
        "the centralizer in k of the generated subalgebra of a regular "
        "element is zero",
    )
    containment = PropertyRecord(
        "n-containment",
        "every positive restricted root space lies inside g(z) for the "
        "constructed element",
    )
    zeta = PropertyRecord(
        "zeta-nonzero",
        "the chosen y has pairwise distinct nonzero root values, "
        "recomputed from the product formula",
    )
    dual_pair = PropertyRecord(
        "killing-dual-pairing",
        "the p-projection of [e, theta(e)] equals B(e, theta(e)) times the "
        "Killing-dual of the root, for each positive root vector e",
    )
    determinism = PropertyRecord(
        "determinism",
        "two runs of the construction on the same datum produce the same "
        "element",
    )
    if datum is None:
        datum = catalog_datum(alg, cd)

    try:
        ez = construct_regular(alg, cd, datum)
        certified.check(True)
    except SoundnessError as exc:
        certified.check(False, str(exc))
        return [certified]

    # the certificate's own echelon form of g(z) serves both span-only checks
    g_z = ez.certificate.subalgebra
    cz = centralizer_in_k(alg, cd, g_z)
    empty_centralizer.check(len(cz) == 0, f"centralizer dim {len(cz)}")

    for i in datum.positive:
        for v in datum.roots[i].space:
            containment.check(g_z.span.contains(v),
                              f"root {i} space escapes g(z)")

    a_mat = MatrixQ.from_columns(list(datum.a_basis))
    coeffs = solve_in_span(a_mat, ez.y)
    zeta.check(coeffs is not None and bool(zeta_value(datum, coeffs)),
               "zeta vanishes at the chosen y")

    scale, rows = gaussian_rows(datum.a_basis)
    a_gram = pairing_matrix([(scale, row) for row in rows],
                            alg.gaussian_killing())
    for i in datum.positive:
        root = datum.roots[i]
        h_nu = _killing_dual_in_a(alg, datum, a_gram, root)
        if h_nu is None:
            dual_pair.check(False, f"root {i}: no Killing dual in a")
            continue
        for e in root.space:
            theta_e = cd.theta.matvec(e)
            w = decompose(cd, bracket(alg, e, theta_e)).y
            c = killing_pair(alg, e, theta_e)
            expected = vec_scale(c, h_nu)
            dual_pair.check(w == expected,
                            f"root {i}: projection is not B(e, theta e) h_nu")

    # the certificate depends on z alone, so a rebuild of z is the rerun
    ez2 = build_regular(alg, cd, datum)
    determinism.check(ez.z == ez2.z, "construction differs between runs")

    return [certified, empty_centralizer, containment, zeta, dual_pair,
            determinism]


def brute_force_lyndon_count(degree: int) -> int:
    """Independent count: enumerate all 2^degree words, keep those strictly
    smaller than every proper rotation."""
    import itertools

    count = 0
    for letters in itertools.product("XY", repeat=degree):
        if all(letters < letters[k:] + letters[:k] for k in range(1, degree)):
            count += 1
    return count


def _suite_witt(alg, cd, rng, samples, box, datum) -> list:
    formula = PropertyRecord(
        "witt-formula",
        "Lyndon word counts per degree match the necklace-count formula "
        "for degrees 1..12",
    )
    brute = PropertyRecord(
        "brute-force",
        "Lyndon word counts match exhaustive rotation-filter enumeration "
        "for degrees 1..6",
    )
    groups = lyndon_basis(12)
    for j in range(1, 13):
        formula.check(len(groups[j - 1]) == witt_dimension(j), f"degree {j}")
    for j in range(1, 7):
        brute.check(len(groups[j - 1]) == brute_force_lyndon_count(j),
                    f"degree {j}")
    return [formula, brute]


_EXPECTED_BOUNDS = {"sl2": (3, 6, 30), "sl3": (8, 16, 600),
                    "sl4": (15, 30, 3915)}


def _suite_bounds(alg, cd, rng, samples, box, datum) -> list:
    rec = PropertyRecord(
        "degree-bound",
        "the generation degree bound equals C(2n, 2) * dim p",
    )
    import math

    b = degree_bounds(alg, cd)
    rec.check(b.r == math.comb(2 * b.n, 2) * b.dim_p, "formula mismatch")
    rec.check(b.two_n == 2 * b.n, "2n mismatch")
    expected = _EXPECTED_BOUNDS.get(alg.name)
    if expected is not None:
        rec.check((b.n, b.two_n, b.r) == expected,
                  f"got ({b.n}, {b.two_n}, {b.r}), expected {expected}")
    return [rec]


# every suite takes (alg, cd, rng, samples, box, datum)
_SUITE_FUNCS = {
    "stabilization": _suite_stabilization,
    "invariance": _suite_invariance,
    "regularity": _suite_regularity,
    "nilcone": _suite_nilcone,
    "appendix": _suite_appendix,
    "witt": _suite_witt,
    "bounds": _suite_bounds,
}


def verify_suite(alg: LieAlgebra, cd: CartanDecomposition, suite: str,
                 seed: int = 0, samples: int = 100, jobs: int = 1,
                 box: int = DEFAULT_BOX,
                 datum: Optional[RestrictedRootDatum] = None) -> VerifyReport:
    """Run one named suite (or 'all') and return its report.

    An exception a suite lets escape becomes one failed record,
    '<suite>-runs', naming the exception type; the next suite still runs.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {SUITES}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if box < 0:
        raise ValueError(f"box must be >= 0, got {box}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    if datum is None and alg.family == "split-sl":
        datum = catalog_datum(alg, cd)
    start = time.monotonic()
    records = []
    for name in names:
        rng = random.Random(seed)
        try:
            records.extend(
                _SUITE_FUNCS[name](alg, cd, rng, samples, box, datum))
        except Exception as exc:
            # a fault the suite did not anticipate is a failed property,
            # not a crash of the whole report
            crashed = PropertyRecord(
                f"{name}-runs",
                f"the {name} suite runs to the end without an unexpected "
                "exception")
            crashed.check(False, f"{type(exc).__name__}: {exc}")
            records.append(crashed)
    report = VerifyReport(suite=suite, algebra=alg.name, seed=seed,
                          samples=samples, records=records)
    report.wall_time_s = time.monotonic() - start
    return report
