import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kregular import catalog, certify, verify
from kregular.algebra import (
    CartanDecomposition,
    ad_matrix,
    bracket,
    decompose,
    killing_pair,
)
from kregular.certify import (
    centralizer_in_k,
    degree_bounds,
    derived_series,
    generated_subalgebra,
    gram_matrix,
    is_k_regular,
    nilcone_test,
    power_trace,
    separation_probe,
    stabilization_bound,
)
from kregular.errors import GramSizeError, SoundnessError
from kregular.linalg import (
    EchelonSpan,
    MatrixQ,
    gaussian_matvec,
    gaussian_rows,
    nilpotency_exponent,
    nullspace_of,
    rank_of,
    reduced_basis,
)
from kregular.scalar import I, ONE, ZERO, Scalar
from kregular.words import (
    DualWordEvaluator,
    LyndonWord,
    WordEvaluator,
    lyndon_basis,
    witt_dimension,
)

from conftest import (
    SL4_NIL,
    Z_SL4_ZERO_GRAM,
    count_filtrations,
    flip_regularity,
    scalar_ad,
    vec,
)

Z_REG = vec(3, e0=1, e1=1, e2=-1)  # h + e - f: x = e - f, y = h
Z_NIL = tuple(a + I * (b + c) for a, b, c in zip(
    vec(3, e0=1), vec(3, e1=1), vec(3, e2=1)))  # h + i(e + f)
Z_SL3 = tuple(Scalar((k * 3) % 5 - 2, k % 2) for k in range(8))


def test_generated_subalgebra(sl2):
    alg, cd = sl2
    rep = generated_subalgebra(alg, cd, Z_REG)
    assert rep.dim == 3
    assert rep.stabilization_degree == 2
    assert rep.per_degree_dims == [2, 3]


def test_generated_subalgebra_of_zero(sl2):
    alg, cd = sl2
    rep = generated_subalgebra(alg, cd, vec(3))
    assert rep.dim == 0
    assert rep.stabilization_degree == 1


def test_gram_full_mode(sl2):
    alg, cd = sl2
    cert = gram_matrix(alg, cd, Z_REG)
    assert cert.mode == "full"
    assert cert.gram.rows == 5  # X, Y, XY, XXY, XYY
    assert cert.gram.is_symmetric()
    assert cert.rank == 3


def test_gram_reduced_equals_full_rank(sl3):
    alg, cd = sl3
    full = gram_matrix(alg, cd, Z_SL3, mode="full")
    reduced = gram_matrix(alg, cd, Z_SL3, mode="reduced")
    assert full.rank == reduced.rank
    assert reduced.gram.rows == generated_subalgebra(alg, cd, Z_SL3).dim


def test_gram_size_limit(sl2, monkeypatch):
    alg, cd = sl2
    monkeypatch.setattr(certify, "GRAM_LIMIT", 3)
    with pytest.raises(GramSizeError):
        gram_matrix(alg, cd, Z_REG, mode="full")
    # reduced mode sidesteps the limit, and raising it admits full mode
    assert gram_matrix(alg, cd, Z_REG, mode="reduced").rank == 3
    monkeypatch.setattr(certify, "GRAM_LIMIT", 5)  # d(3)
    assert gram_matrix(alg, cd, Z_REG, mode="full").rank == 3


def test_certificate_mode_is_fixed_by_the_algebra(sl3, monkeypatch):
    """d(13) fits the limit and d(14) does not, and no environment
    variable moves that line."""
    alg, cd = sl3
    plain = is_k_regular(alg, cd, Z_SL3).to_dict()
    monkeypatch.setenv("KREGULAR_GRAM_LIMIT", "0")
    assert is_k_regular(alg, cd, Z_SL3).to_dict() == plain
    assert plain["mode"] == "full"
    assert certify._full_gram_fits(13) and not certify._full_gram_fits(14)


def test_full_mode_size_check_stops_summing_past_the_limit(sl2, monkeypatch):
    degrees = []

    def counting(j):
        assert j <= 14, "kept summing Witt dimensions past the limit"
        degrees.append(j)
        return witt_dimension(j)

    monkeypatch.setattr(certify, "witt_dimension", counting)
    with pytest.raises(GramSizeError, match=r"d\(20000\) exceeds limit 1500"):
        gram_matrix(*sl2, Z_REG, degree_cap=20000)
    # d(13) = 1377 <= 1500 < d(14) = 2538
    assert degrees == list(range(1, 15))


def test_gram_rejects_bad_args(sl2):
    alg, cd = sl2
    with pytest.raises(ValueError):
        gram_matrix(alg, cd, Z_REG, degree_cap=0)
    with pytest.raises(ValueError):
        gram_matrix(alg, cd, Z_REG, mode="fast")


def test_is_k_regular_verdicts(sl2):
    alg, cd = sl2
    cert = is_k_regular(alg, cd, Z_REG)
    assert cert.verdict == "k-regular"
    rows = cert.witnesses["minor_rows"]
    cols = cert.witnesses["minor_cols"]
    minor = MatrixQ.from_rows([[cert.gram[i, j] for j in cols] for i in rows])
    assert rank_of(minor) == 3

    e = alg.basis_vector(1)
    assert is_k_regular(alg, cd, e).verdict == "k-regular"
    assert is_k_regular(alg, cd, alg.basis_vector(0)).verdict == "neither"
    assert is_k_regular(alg, cd, vec(3)).verdict == "neither"


def test_is_k_regular_uses_reduced_mode_on_sl4(sl4):
    alg, cd = sl4
    z = tuple(Scalar(k % 3 - 1, (k * 2) % 3 - 1) for k in range(15))
    cert = is_k_regular(alg, cd, z)
    assert cert.mode == "reduced"
    assert cert.verdict in ("k-regular", "neither")


def test_nilcone_verdicts(sl2):
    alg, cd = sl2
    cert = nilcone_test(alg, cd, Z_NIL)
    assert cert.verdict == "nil-k"
    assert cert.witnesses == {"ad_x_exponent": 1, "ad_y_exponent": 3}

    zero = nilcone_test(alg, cd, vec(3))
    assert zero.verdict == "nil-k"
    assert zero.witnesses == {"ad_x_exponent": 1, "ad_y_exponent": 1}

    assert nilcone_test(alg, cd, alg.basis_vector(1)).verdict == "k-regular"
    assert nilcone_test(alg, cd, alg.basis_vector(0)).verdict == "neither"


def test_centralizer_in_k(sl2):
    alg, cd = sl2
    rep = generated_subalgebra(alg, cd, Z_REG)
    assert centralizer_in_k(alg, cd, rep) == []
    empty = generated_subalgebra(alg, cd, vec(3))
    assert len(centralizer_in_k(alg, cd, empty)) == cd.dim_k


def test_derived_series(sl2):
    alg, _ = sl2
    full = [alg.basis_vector(i) for i in range(3)]
    assert derived_series(alg, full) == [3, 3]
    assert derived_series(alg, full)[-1] != 0
    borel = [alg.basis_vector(0), alg.basis_vector(1)]  # h, e
    assert derived_series(alg, borel) == [2, 1, 0]
    assert derived_series(alg, borel)[-1] == 0
    with pytest.raises(ValueError):
        derived_series(alg, [alg.basis_vector(1), alg.basis_vector(2)])


def test_invariant_value(sl2):
    """The invariants B(t(z), t'(z)) are the entries of the full Gram:
    rows and columns run X, Y, XY at cap 2."""
    alg, cd = sl2
    gram = gram_matrix(alg, cd, Z_REG, degree_cap=2).gram
    assert gram[0, 2] == gram[2, 0] == ZERO  # B(e - f, -2e - 2f)
    assert gram[0, 0] == Scalar(-8)  # B(e - f, e - f)


def test_lie_derivative_residual(sl2):
    """The invariance suite's residual B(t, dt') + B(dt, t') vanishes for
    XY and XXY at z along every k-direction, and its record passes."""
    alg, cd = sl2
    ez = decompose(cd, Z_REG)
    words = [LyndonWord.parse("XY"), LyndonWord.parse("XXY")]
    killing = gaussian_rows(alg.killing.row(i) for i in range(alg.dim))
    for u in cd.k_basis:
        dev = DualWordEvaluator(alg, ez.x, ez.y, bracket(alg, u, ez.x),
                                bracket(alg, u, ez.y))
        duals = [dev.gaussian_value(w) for w in words]
        residuals = verify._residual_sums(duals, killing)
        assert [res for _, res, _ in residuals] == [(0, 0)] * 3
    report = verify.verify_suite(alg, cd, "invariance", seed=0, samples=1)
    residual = {r.name: r for r in report.records}["residual-zero"]
    assert residual.checks_run > 0 and residual.failures == 0


def test_power_trace(sl2):
    alg, _ = sl2
    h = alg.basis_vector(0)
    assert power_trace(alg, h, 1) == ZERO
    assert power_trace(alg, h, 2) == Scalar(8)
    with pytest.raises(ValueError):
        power_trace(alg, h, 7)
    with pytest.raises(ValueError):
        power_trace(alg, h, 0)


def test_degree_bounds(sl2, sl3, sl4):
    for (alg, cd), expected in zip(
            (sl2, sl3, sl4), [(3, 6, 2, 30), (8, 16, 5, 600), (15, 30, 9, 3915)]):
        b = degree_bounds(alg, cd)
        assert (b.n, b.two_n, b.dim_p, b.r) == expected


def test_separation_probe(sl2):
    alg, cd = sl2
    z1 = Z_REG
    z2 = vec(3, e0=1, e1=2, e2=-2)  # x-part scaled by 2
    sep = separation_probe(alg, cd, z1, z2)
    assert sep is not None
    assert sep.kind == "word-pair"
    assert sep.detail == {"t": "X", "t_prime": "X",
                          "value": "-8", "value_prime": "-32"}
    assert separation_probe(alg, cd, z1, z1) is None


def test_separation_probe_falls_back_to_power_traces(sl3):
    # B(x,x), B(x,y) and B(y,y) agree (-3, 0, 39), and so do the traces
    # of (ad z)^m up to m = 5; tr((ad z)^6) does not
    alg, cd = sl3
    z1 = vec(8, e0=-1, e1=1, e2=-1)
    z2 = vec(8, e0=-1, e2=1, e4=2)
    sep = separation_probe(alg, cd, z1, z2, degree_cap=1)
    assert sep.to_dict() == {"kind": "power-trace", "power": 6,
                             "value": "2916", "value_prime": "3564"}
    assert [power_trace(alg, z, 6) for z in (z1, z2)] == [2916, 3564]


def test_power_traces_come_from_one_running_product(sl3, monkeypatch):
    # 2 dim g - 1 = 15 products per element, not sum(m - 1) = 120
    alg, cd = sl3
    calls = []
    matmul = certify.gaussian_matmul

    def counting(a, b):
        calls.append(b)
        return matmul(a, b)

    monkeypatch.setattr(certify, "gaussian_matmul", counting)
    assert separation_probe(alg, cd, Z_SL3, Z_SL3, degree_cap=2) is None
    assert len(calls) == 30


def test_separation_probe_stops_words_at_degree_2n_minus_1(sl2, monkeypatch):
    """deg t + deg t' <= 2n = 6 on sl(2): no word past degree 5 pairs with
    anything, and only words of degree <= 3 take the integer Killing
    matvec, once per side, even at the largest CLI cap."""
    alg, cd = sl2
    degrees, killing_matvecs = [], []
    gaussian_value = WordEvaluator.gaussian_value

    def counting_value(self, word):
        degrees.append(word.degree)
        return gaussian_value(self, word)

    def counting_matvec(rows, v):
        killing_matvecs.append(v)
        return gaussian_matvec(rows, v)

    monkeypatch.setattr(WordEvaluator, "gaussian_value", counting_value)
    monkeypatch.setattr(certify, "gaussian_matvec", counting_matvec)
    assert separation_probe(alg, cd, Z_REG, Z_REG, degree_cap=16) is None
    assert set(degrees) == {1, 2, 3, 4, 5}
    # X, Y, XY, XXY, XYY, on each of the two sides
    assert len(killing_matvecs) == 10


def _separation_probe_reference(alg, cd, z, z_prime, degree_cap):
    """separation_probe as it was before its words stopped at degree
    2n - 1: every word up to the cap, every pair over the bound skipped,
    and one Killing matvec per pair and side."""
    ez, ezp = decompose(cd, z), decompose(cd, z_prime)
    ev = WordEvaluator(alg, ez.x, ez.y)
    evp = WordEvaluator(alg, ezp.x, ezp.y)
    words = [w for group in lyndon_basis(degree_cap) for w in group]
    two_n = 2 * alg.dim
    for a in range(len(words)):
        wa = words[a]
        va, vpa = ev.value(wa), evp.value(wa)
        for b in range(a, len(words)):
            wb = words[b]
            if wa.degree + wb.degree > two_n:
                continue
            lhs = killing_pair(alg, va, ev.value(wb))
            rhs = killing_pair(alg, vpa, evp.value(wb))
            if lhs != rhs:
                return {"kind": "word-pair", "t": str(wa), "t_prime": str(wb),
                        "value": str(lhs), "value_prime": str(rhs)}
    traces = zip(certify._power_traces(alg, z),
                 certify._power_traces(alg, z_prime))
    for m, (lhs, rhs) in enumerate(traces, 1):
        if lhs != rhs:
            return {"kind": "power-trace", "power": m,
                    "value": str(lhs), "value_prime": str(rhs)}
    return None


_COORDS = st.lists(st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2)),
                   min_size=8, max_size=8)


@settings(max_examples=30, deadline=None)
@given(algebra=st.sampled_from(("sl2", "sl3")),
       kind=st.sampled_from(("equal", "scaled", "theta", "other")),
       cap=st.integers(1, 6), u=_COORDS, w=_COORDS,
       c=st.sampled_from((Scalar(2), Scalar(-1), I, ONE / 2)))
@example(algebra="sl3", kind="equal", cap=6, u=[ONE] * 8, w=[ONE] * 8, c=I)
@example(algebra="sl2", kind="scaled", cap=2, u=[ONE, -ONE, ONE] * 3,
         w=[ONE] * 8, c=ONE / 2)
@example(algebra="sl2", kind="equal", cap=1, u=[ONE] * 8, w=[ONE] * 8, c=I)
@example(algebra="sl3", kind="scaled", cap=1, u=[ONE] * 8, w=[ONE] * 8,
         c=Scalar(-1))
def test_separation_probe_matches_reference(sl2, sl3, algebra, kind, cap,
                                            u, w, c):
    alg, cd = {"sl2": sl2, "sl3": sl3}[algebra]
    z = tuple(u[:alg.dim])
    z_prime = {"equal": z, "scaled": tuple(c * a for a in z),
               "theta": cd.theta.matvec(z), "other": tuple(w[:alg.dim])}[kind]
    sep = separation_probe(alg, cd, z, z_prime, degree_cap=cap)
    assert (None if sep is None else sep.to_dict()) \
        == _separation_probe_reference(alg, cd, z, z_prime, cap)


def test_full_gram_side():
    """d(cap), the full Gram side, counts the Lyndon words up to cap."""
    assert sum(map(len, lyndon_basis(3))) == 5
    assert sum(map(len, lyndon_basis(8))) == 71
    assert sum(witt_dimension(j) for j in range(1, 16)) == 4720
    assert certify._full_gram_fits(8) and not certify._full_gram_fits(15)


# Differential oracles: derived_series and centralizer_in_k as they were
# before they moved onto the reduced echelon basis.  Both bracket the
# vectors exactly as given.

def _derived_series_reference(alg, basis):
    n = alg.dim
    current = EchelonSpan(n)
    current.extend(basis)
    for u in current.basis:
        for v in current.basis:
            if not current.contains(bracket(alg, u, v)):
                raise ValueError("basis is not closed under the bracket")
    dims = [current.dim]
    while True:
        nxt = EchelonSpan(n)
        cb = current.basis
        for i in range(len(cb)):
            for j in range(i + 1, len(cb)):
                nxt.add(bracket(alg, cb[i], cb[j]))
        dims.append(nxt.dim)
        if nxt.dim == current.dim or nxt.dim == 0:
            return dims
        current = nxt


def _centralizer_in_k_reference(alg, cd, report):
    if not report.basis:
        return [tuple(v) for v in cd.k_basis]
    n = alg.dim
    ad_k = [scalar_ad(alg, u) for u in cd.k_basis]
    rows = []
    for w in report.basis:
        cols = [a.matvec(w) for a in ad_k]
        for r in range(n):
            rows.append([cols[c][r] for c in range(len(ad_k))])
    out = []
    for coeffs in nullspace_of(MatrixQ.from_rows(rows)):
        v = [ZERO] * n
        for c, u in zip(coeffs, cd.k_basis):
            if c:
                for i in range(n):
                    v[i] = v[i] + c * u[i]
        out.append(tuple(v))
    return out


def _sparse_element(alg, rng, support):
    """Gaussian-integer element with at most `support` nonzero coordinates."""
    z = [ZERO] * alg.dim
    for k in rng.sample(range(alg.dim), support):
        z[k] = Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
    return tuple(z)


def _differential_elements(alg, seed, dense, sparse):
    rng = random.Random(seed)
    out = [tuple(Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(alg.dim)) for _ in range(dense)]
    out.extend(_sparse_element(alg, rng, rng.randint(1, 3))
               for _ in range(sparse))
    out.append(alg.basis_vector(0))
    return out


def test_derived_series_and_centralizer_match_reference(sl2, sl3, sl4, su21):
    proper_centralizer = solvable = 0
    for (alg, cd), dense, sparse in ((sl2, 3, 6), (sl3, 2, 8), (su21, 2, 8),
                                     (sl4, 1, 8)):
        for z in _differential_elements(alg, alg.dim, dense, sparse):
            rep = generated_subalgebra(alg, cd, z)
            dims = derived_series(alg, rep.basis)
            assert dims == _derived_series_reference(alg, rep.basis), z
            cz = centralizer_in_k(alg, cd, rep)
            assert cz == _centralizer_in_k_reference(alg, cd, rep), z
            proper_centralizer += bool(cz) and rep.dim > 0
            solvable += dims[-1] == 0 and rep.dim > 0
    # the sparse elements reach proper subalgebras of both kinds
    assert proper_centralizer and solvable


def test_report_reduced_basis_is_the_rref_of_its_basis(sl2, sl3, sl4, su21):
    full = 0
    for (alg, cd), dense, sparse in ((sl2, 3, 6), (sl3, 2, 8), (su21, 2, 8),
                                     (sl4, 1, 8)):
        for z in _differential_elements(alg, alg.dim, dense, sparse):
            rep = generated_subalgebra(alg, cd, z)
            assert rep.reduced_basis == reduced_basis(rep.basis, alg.dim), z
            assert rep.span.dim == rep.dim
            full += rep.dim == alg.dim
    # both the full-span shortcut and the back-substitution are exercised
    assert 0 < full


def test_report_span_stays_out_of_repr_and_equality(sl2):
    alg, cd = sl2
    rep = generated_subalgebra(alg, cd, Z_REG)
    assert rep.element == decompose(cd, Z_REG)
    for name in ("span", "element"):
        assert name not in repr(rep) and name not in rep.to_dict()
    assert rep == dataclasses.replace(rep, span=EchelonSpan(alg.dim),
                                      element=decompose(cd, vec(3)))


def _generated_subalgebra_reference(alg, cd, z):
    """The filtration as it was before degree 2 became one bracket: every
    frontier vector, x and y included, bracketed with x, then y.  Returns
    (basis, per_degree_dims, stabilization_degree)."""
    ez = decompose(cd, z)
    span = EchelonSpan(alg.dim)
    span.add(ez.x)
    span.add(ez.y)
    per_degree = [span.dim]
    frontier = list(span.basis)
    m = 1
    while True:
        new = []
        for v in frontier:
            for gen in (ez.x, ez.y):
                w = bracket(alg, gen, v)
                if span.add(w):
                    new.append(w)
        if not new:
            return span.basis, per_degree, m
        per_degree.append(span.dim)
        frontier = new
        m += 1


def _theta_three(alg):
    """A decomposition with theta = 3: x = 2z and y = -z, so y lies in
    span{x}."""
    return CartanDecomposition(MatrixQ.from_rows(
        [[Scalar(3) if i == j else ZERO for j in range(alg.dim)]
         for i in range(alg.dim)]))


_FILTRATION_ENTRIES = st.one_of(
    st.just(ZERO), st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2)),
    st.builds(Scalar, st.fractions(-4, 4, max_denominator=6)))


@settings(max_examples=40, deadline=None)
@given(algebra=st.sampled_from(("sl2", "sl3", "su21", "sl4")),
       part=st.sampled_from(("z", "k", "p")), dependent=st.booleans(),
       coords=st.lists(_FILTRATION_ENTRIES, min_size=15, max_size=15))
@example(algebra="sl3", part="p", dependent=False, coords=[ONE] * 15)  # x = 0
@example(algebra="sl3", part="k", dependent=False, coords=[ONE] * 15)  # y = 0
@example(algebra="sl4", part="z", dependent=True, coords=[ONE] * 15)
def test_filtration_matches_reference(sl2, sl3, su21, sl4, algebra, part,
                                      dependent, coords):
    alg, cd = {"sl2": sl2, "sl3": sl3, "su21": su21, "sl4": sl4}[algebra]
    z = tuple(coords[:alg.dim])
    ez = decompose(cd, z)
    z = {"z": z, "k": ez.x, "p": ez.y}[part]
    if dependent:
        cd = _theta_three(alg)
    rep = generated_subalgebra(alg, cd, z)
    basis, per_degree, degree = _generated_subalgebra_reference(alg, cd, z)
    assert rep.basis == basis
    assert rep.per_degree_dims == per_degree
    assert rep.stabilization_degree == degree


# sl(3) on the s(gl(2) x gl(1)) block H1, H2, E12, E21, and sl(4) on the
# s(gl(3) x gl(1)) block: theta-stable, so g(z) stays in the block
_BLOCK_ELEMENTS = {
    "sl3": tuple(Scalar(k + 1, 2 - k) if k in (0, 1, 2, 4) else ZERO
                 for k in range(8)),
    "sl4": tuple(Scalar(k % 5 - 2, k % 3 + 1)
                 if k in (0, 1, 2, 3, 4, 6, 7, 9, 10) else ZERO
                 for k in range(15)),
}

_BOUND_ENTRIES = st.one_of(
    st.just(ZERO), st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(Scalar, st.fractions(-4, 4, max_denominator=9),
              st.fractions(-4, 4, max_denominator=9)))


@settings(max_examples=60, deadline=None)
@given(algebra=st.sampled_from(("sl2", "sl3", "su21", "sl4", "sl3-rescaled")),
       part=st.sampled_from(("z", "k", "p")), dependent=st.booleans(),
       coords=st.lists(_BOUND_ENTRIES, min_size=15, max_size=15))
@example(algebra="sl3", part="p", dependent=False, coords=[ONE] * 15)  # x = 0
@example(algebra="sl3", part="k", dependent=False, coords=[ONE] * 15)  # y = 0
@example(algebra="sl4", part="z", dependent=True, coords=[ONE] * 15)
def test_stabilization_bound_is_the_exact_degree(sl2, sl3, su21, sl4,
                                                 sl3_rescaled, algebra, part,
                                                 dependent, coords):
    """Whenever the F_p pass gives a bound, the exact filtration reaches
    all of g and stabilizes at that very degree."""
    alg, cd = {"sl2": sl2, "sl3": sl3, "su21": su21, "sl4": sl4,
               "sl3-rescaled": sl3_rescaled}[algebra]
    z = tuple(coords[:alg.dim])
    ez = decompose(cd, z)
    z = {"z": z, "k": ez.x, "p": ez.y}[part]
    if dependent:
        cd = _theta_three(alg)
    bound = stabilization_bound(alg, cd, z)
    rep = generated_subalgebra(alg, cd, z)
    if bound is not None:
        assert rep.dim == alg.dim
        assert bound == rep.stabilization_degree


def test_stabilization_bound_on_regular_and_deficient_elements(
        sl2, sl3, su21, sl4, sl3_rescaled):
    # the rescaled table is cleared by S > 1, which the F_p bracket carries
    assert sl3_rescaled[0].gaussian_table()[0] > 1
    rng = random.Random(5)
    for alg, cd in (sl2, sl3, su21, sl4, sl3_rescaled):
        for _ in range(3):
            z = verify.sample_element(alg, rng)
            rep = generated_subalgebra(alg, cd, z)
            assert rep.dim == alg.dim
            assert stabilization_bound(alg, cd, z) == rep.stabilization_degree
    for (alg, cd), z in ((sl3, _BLOCK_ELEMENTS["sl3"]),
                         (sl4, _BLOCK_ELEMENTS["sl4"])):
        assert 2 < generated_subalgebra(alg, cd, z).dim < alg.dim
        assert stabilization_bound(alg, cd, z) is None
    alg, cd = sl3
    for z in (vec(8), decompose(cd, Z_SL3).x):  # z = 0, and z in k
        assert stabilization_bound(alg, cd, z) is None


def test_stabilization_bound_leaves_unlucky_inputs_open(sl3, monkeypatch):
    alg, cd = sl3
    degree = generated_subalgebra(alg, cd, Z_SL3).stabilization_degree
    assert stabilization_bound(alg, cd, Z_SL3) == degree
    # a coordinate with denominator p has no image in F_p
    over_p = (Scalar(Fraction(1, certify.MODP_PRIME)),) + Z_SL3[1:]
    assert generated_subalgebra(alg, cd, over_p).dim == alg.dim
    assert stabilization_bound(alg, cd, over_p) is None
    # p = 13 with s = 5: 13 z maps to 0, while z itself stays decided
    monkeypatch.setattr(certify, "MODP_PRIME", 13)
    monkeypatch.setattr(certify, "MODP_I", 5)
    assert stabilization_bound(alg, cd, Z_SL3) == degree
    assert stabilization_bound(alg, cd, tuple(13 * a for a in Z_SL3)) is None


def test_modp_constants_make_i_a_ring_map():
    p, s = certify.MODP_PRIME, certify.MODP_I
    assert p % 4 == 1 and (s * s + 1) % p == 0
    certify._check_modp_constants(p, s)
    # 11 = 3 mod 4 has no square root of -1; 4^2 + 1 = 17 is not 0 mod 13
    for bad in ((11, 5), (13, 4), (p, s + 1)):
        with pytest.raises(SoundnessError, match="ring map"):
            certify._check_modp_constants(*bad)


def test_modp_prime_is_prime():
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(certify.MODP_PRIME)


def test_degree_two_of_the_filtration_is_one_bracket(sl2, sl4, monkeypatch):
    """One bracket [y, x] makes degree 2, and each vector added after it
    is bracketed with x and y once: 1 + 2 (dim g(z) - 2) in all, 3 fewer
    than bracketing x and y each with x and y."""
    calls = []

    def counting(*args):
        calls.append(args)
        return bracket(*args)

    monkeypatch.setattr(certify, "bracket", counting)
    z_sl4 = tuple(Scalar(k % 3 - 1, (k * 2) % 3 - 1) for k in range(15))
    for (alg, cd), z, dim, brackets in ((sl4, SL4_NIL, 2, 1),
                                        (sl2, Z_REG, 3, 3),
                                        (sl4, z_sl4, 15, 27),
                                        (sl2, vec(3), 0, 0)):
        del calls[:]
        rep = generated_subalgebra(alg, cd, z)
        assert (rep.dim, len(calls)) == (dim, brackets)
        if dim:
            ez = decompose(cd, z)
            assert calls[0] == (alg, ez.y, ez.x)


def test_zero_gram_with_non_nilpotent_ad_x_is_neither(sl4):
    """The vanishing Gram alone does not put z in the cone: on this
    element of k the 1 x 1 reduced Gram [B(x, x)] is zero while ad x is
    not nilpotent, as tr((ad x)^4) = -128 also shows."""
    alg, cd = sl4
    x = decompose(cd, Z_SL4_ZERO_GRAM).x
    assert x == Z_SL4_ZERO_GRAM
    gram = gram_matrix(alg, cd, Z_SL4_ZERO_GRAM, mode="reduced").gram
    assert (gram.rows, gram.cols) == (1, 1) and gram.is_zero()
    assert nilpotency_exponent(ad_matrix(alg, x)[1]) is None
    assert power_trace(alg, x, 4) == Scalar(-128)
    cert = nilcone_test(alg, cd, Z_SL4_ZERO_GRAM)
    assert cert.verdict == "neither" and cert.witnesses is None


@pytest.mark.parametrize("case", ["sl2-nil", "sl4-nil", "sl4-zero-gram"])
def test_nilcone_test_splits_z_once(case, sl2, sl4, monkeypatch):
    """The certificate's filtration is the one decompose call; ad y is not
    built once ad x is known not to be nilpotent."""
    (alg, cd), z, ads = {"sl2-nil": (sl2, Z_NIL, 2),
                         "sl4-nil": (sl4, SL4_NIL, 2),
                         "sl4-zero-gram": (sl4, Z_SL4_ZERO_GRAM, 1)}[case]
    splits, built = [], []

    def counting_decompose(*args):
        splits.append(args)
        return decompose(*args)

    def counting_ad(alg, u):
        built.append(u)
        return ad_matrix(alg, u)

    monkeypatch.setattr(certify, "decompose", counting_decompose)
    monkeypatch.setattr(certify, "ad_matrix", counting_ad)
    cert = nilcone_test(alg, cd, z)
    assert len(splits) == 1
    ez = cert.subalgebra.element
    assert built == [ez.x, ez.y][:ads]
    del splits[:]
    gram_matrix(alg, cd, z, degree_cap=2, mode="full")
    assert len(splits) == 1


def test_derived_series_of_all_of_g_skips_the_closure_check(sl4, monkeypatch):
    alg, _ = sl4
    calls = []

    def counting(*args):
        calls.append(args)
        return bracket(*args)

    monkeypatch.setattr(certify, "bracket", counting)
    # a spanning set that is not the identity basis
    spanning = [tuple(a + b for a, b in zip(alg.basis_vector(i),
                                            alg.basis_vector((i + 1) % alg.dim)))
                for i in range(alg.dim)]
    assert derived_series(alg, spanning) == [15, 15]
    # the closure check alone took 15 * 15 brackets before
    assert len(calls) <= 105


def _series_or_error(func, alg, vectors):
    try:
        return func(alg, vectors)
    except ValueError:
        return "not closed"


def test_derived_series_on_arbitrary_sets_matches_reference(sl3):
    alg, _ = sl3
    rng = random.Random(7)
    outcomes = []
    for _ in range(12):
        vectors = [_sparse_element(alg, rng, 2) for _ in range(2)]
        outcomes.append(_series_or_error(derived_series, alg, vectors))
        assert outcomes[-1] == _series_or_error(
            _derived_series_reference, alg, vectors), vectors
    assert "not closed" in outcomes


@pytest.mark.parametrize("case", ["sl2-full", "sl3-reduced"])
def test_certificates_run_the_filtration_once(case, sl2, sl3, monkeypatch):
    """A reduced-mode certificate runs the exact filtration once and
    carries its report; a full-mode one runs none, and its word echelon
    spans the same g(z) with the same dims."""
    if case == "sl2-full":
        (alg, cd), z, mode, runs = sl2, Z_REG, "full", 0
    else:
        monkeypatch.setattr(certify, "GRAM_LIMIT", 0)
        (alg, cd), z, mode, runs = sl3, Z_SL3, "reduced", 1
    fresh = generated_subalgebra(alg, cd, z)
    calls = count_filtrations(monkeypatch)
    for func in (is_k_regular, nilcone_test):
        del calls[:]
        cert = func(alg, cd, z)
        assert len(calls) == runs, func.__name__
        assert cert.mode == mode
        assert cert.subalgebra.to_dict() == fresh.to_dict()
        assert cert.subalgebra.span.equals(fresh.span)
        if mode == "reduced":
            assert cert.subalgebra.basis == fresh.basis


def test_certificate_dict_omits_the_subalgebra(sl2):
    alg, cd = sl2
    cert = is_k_regular(alg, cd, Z_REG)
    keys = {"degree_cap", "mode", "rank", "dim_g", "verdict", "witnesses",
            "gram_hash"}
    assert cert.subalgebra is not None
    assert set(cert.to_dict()) == keys
    assert set(cert.to_dict(include_matrix=True)) == keys | {"gram"}


@pytest.mark.parametrize("func", [is_k_regular, nilcone_test])
def test_rank_dimension_disagreement_is_a_soundness_error(func, sl2,
                                                          monkeypatch):
    """Reduced mode checks the Gram rank against the exact filtration's
    dim; full mode runs no exact filtration on these inputs, so a flipped
    filtration leaves its verdicts as they are."""
    alg, cd = sl2
    flip_regularity(monkeypatch)
    assert func(alg, cd, Z_REG).verdict == "k-regular"
    assert func(alg, cd, Z_NIL).verdict != "k-regular"
    monkeypatch.setattr(certify, "GRAM_LIMIT", 0)
    for z in (Z_REG, Z_NIL):
        with pytest.raises(SoundnessError, match="disagree"):
            func(alg, cd, z)


@pytest.mark.parametrize("func", [is_k_regular, nilcone_test])
def test_jobs_below_one_rejected(func, sl2):
    alg, cd = sl2
    with pytest.raises(ValueError, match="jobs"):
        func(alg, cd, Z_REG, jobs=0)


def test_killing_form_is_cleared_once_per_algebra():
    # a fresh sl(3), past catalog_build's cache: building and validating it
    # clears nothing; the first certificate clears the Killing form, and
    # the later certificates, in either mode, and a separation probe read
    # that one object and never the Scalar matrix again
    alg, cd = catalog.catalog_build.__wrapped__("split-sl", 3)
    assert alg._gaussian_killing is None
    assert is_k_regular(alg, cd, Z_SL3).verdict == "k-regular"
    cleared = alg._gaussian_killing
    assert cleared == gaussian_rows(alg.killing.row(i) for i in range(8))
    alg.killing = None
    assert nilcone_test(alg, cd, Z_SL3).verdict == "k-regular"
    assert gram_matrix(alg, cd, Z_SL3, mode="reduced").rank == 8
    assert separation_probe(alg, cd, Z_SL3, Z_SL3, degree_cap=2) is None
    assert alg._gaussian_killing is cleared


def test_certificate_path_builds_no_scalar_word_value(sl3, monkeypatch):
    # full-mode Grams and separation probes pair the integer word rows
    alg, cd = sl3

    def refuse(self, word):
        raise AssertionError(f"Scalar value of word {word}")

    monkeypatch.setattr(WordEvaluator, "value", refuse)
    assert is_k_regular(alg, cd, Z_SL3).mode == "full"
    assert separation_probe(alg, cd, Z_SL3, Z_SL3, degree_cap=3) is None
