"""Full-mode certificates from one echelon of the Lyndon word values.

The reference is an in-file copy of the path it replaced: the exact
filtration (generated_subalgebra) for g(z), and the rank profile of the
whole word Gram, stopped at dim g independent rows.  The word echelon
must reproduce its certificates byte for byte, and its report of g(z) up
to the choice of basis.

The echelon's own check is the filtration over F_p: the fault tests below
break it, force its fallback to the exact filtration, and run the
"filtration brackets with x only" mutant through it.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kregular import algebra, certify, verify
from kregular.algebra import ad_matrix, modp_bracket
from kregular.catalog import catalog_build
from kregular.certify import (
    GramCertificate,
    generated_subalgebra,
    gram_matrix,
    is_k_regular,
    nilcone_test,
)
from kregular.errors import SoundnessError
from kregular.linalg import EchelonSpan, nilpotency_exponent, pairing_matrix
from kregular.scalar import I, ONE, ZERO, Scalar
from kregular.words import WordEvaluator, lyndon_basis

from conftest import (
    SCALES,
    claim_modp_span_at_degree_one,
    count_filtrations,
    flip_regularity,
    matrix_element,
    vec,
)

Z_SL3 = tuple(Scalar((k * 3) % 5 - 2, k % 2) for k in range(8))


def _bounded_rank_profile(m, max_rank):
    """rank_profile as it stood with its max_rank keyword: elimination
    stops at max_rank independent rows."""
    span = EchelonSpan(m.cols)
    rows = []
    for i in range(m.rows):
        if len(rows) == max_rank:
            break
        if span.add(m.row(i)):
            rows.append(i)
    return len(rows), rows, [pc for pc, _ in span._reduced]


def _old_gram_matrix(alg, cd, z, cap):
    """Full-mode gram_matrix before the word echelon: the exact filtration
    for g(z), and the whole Gram eliminated up to dim g rows."""
    report = generated_subalgebra(alg, cd, z)
    ez = report.element
    ev = WordEvaluator(alg, ez.x, ez.y)
    gram = pairing_matrix([ev.gaussian_value(w) for group in lyndon_basis(cap)
                           for w in group], alg.gaussian_killing())
    rank, rows, cols = _bounded_rank_profile(gram, alg.dim)
    return GramCertificate(degree_cap=cap, mode="full", gram=gram,
                           rank=rank, dim_g=alg.dim, pivot_rows=rows,
                           pivot_cols=cols, subalgebra=report)


def _old_certify(alg, cd, z):
    cert = _old_gram_matrix(alg, cd, z, alg.dim)
    regular = cert.rank == alg.dim
    assert regular == (cert.subalgebra.dim == alg.dim)
    cert.verdict = "k-regular" if regular else "neither"
    return cert


def _old_is_k_regular(alg, cd, z):
    cert = _old_certify(alg, cd, z)
    if cert.verdict == "k-regular":
        cert.witnesses = {"minor_rows": cert.pivot_rows,
                          "minor_cols": cert.pivot_cols}
    return cert


def _old_nilcone_test(alg, cd, z):
    cert = _old_certify(alg, cd, z)
    if cert.gram.is_zero():
        ez = cert.subalgebra.element
        ex = nilpotency_exponent(ad_matrix(alg, ez.x)[1])
        ey = None if ex is None else nilpotency_exponent(
            ad_matrix(alg, ez.y)[1])
        if ey is not None:
            cert.verdict = "nil-k"
            cert.witnesses = {"ad_x_exponent": ex, "ad_y_exponent": ey}
    return cert


def _assert_same(new, old):
    assert new.to_dict(include_matrix=True) == old.to_dict(include_matrix=True)
    assert new.gram_hash() == old.gram_hash()
    assert (new.pivot_rows, new.pivot_cols) == (old.pivot_rows, old.pivot_cols)
    assert new.subalgebra.to_dict() == old.subalgebra.to_dict()
    assert new.subalgebra.span.equals(old.subalgebra.span)
    assert new.subalgebra.element == old.subalgebra.element


# sl(3) on the s(gl(2) x gl(1)) block H1, H2, E12, E21, a theta-stable
# subalgebra for both decompositions: the verdict is neither
_BLOCK = (0, 1, 2, 4)
# y = u u^T for the isotropic u = (3, 4, 5i): g(z) = C y, and the split
# sl(3) verdict is nil-k
_SL3_NIL = matrix_element(3, {(i, j): a * b for i, a in
                              enumerate((Scalar(3), Scalar(4), Scalar(0, 5)))
                              for j, b in
                              enumerate((Scalar(3), Scalar(4), Scalar(0, 5)))})

_ENTRIES = st.one_of(
    st.just(ZERO), st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(Scalar, st.fractions(-4, 4, max_denominator=9),
              st.fractions(-4, 4, max_denominator=9)))


def _element(alg, cd, kind, coords):
    if kind == "zero":
        return vec(alg.dim)
    if kind == "block":
        return tuple(c if k in _BLOCK else ZERO for k, c in enumerate(coords))
    if kind == "nil":
        if alg.dim == 3:
            return (ONE, I, I)  # h + i(e + f)
        if alg.name.endswith("rescaled"):  # the same matrix, rescaled basis
            return tuple(a * Scalar(1 / s) for a, s in zip(_SL3_NIL, SCALES))
        return _SL3_NIL
    ez = certify.decompose(cd, coords)
    return {"z": coords, "k": ez.x, "p": ez.y}[kind]


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(("sl2", "sl3", "su21", "sl3-rescaled")),
       kind=st.sampled_from(("z", "k", "p", "block", "nil", "zero")),
       cap=st.integers(1, 9),
       coords=st.lists(_ENTRIES, min_size=8, max_size=8))
@example(name="sl3", kind="nil", cap=9, coords=[ONE] * 8)
@example(name="sl3-rescaled", kind="nil", cap=2, coords=[ONE] * 8)
@example(name="sl2", kind="nil", cap=1, coords=[ONE] * 8)
@example(name="su21", kind="block", cap=3, coords=[ONE] * 8)
@example(name="sl3", kind="zero", cap=4, coords=[ONE] * 8)
@example(name="sl3-rescaled", kind="z", cap=1, coords=[ONE] * 8)
def test_word_echelon_matches_the_exact_filtration_path(
        sl2, sl3, su21, sl3_rescaled, name, kind, cap, coords):
    alg, cd = {"sl2": sl2, "sl3": sl3, "su21": su21,
               "sl3-rescaled": sl3_rescaled}[name]
    z = _element(alg, cd, kind, tuple(coords[:alg.dim]))
    _assert_same(gram_matrix(alg, cd, z, degree_cap=cap, mode="full"),
                 _old_gram_matrix(alg, cd, z, cap))
    for new, old in ((is_k_regular, _old_is_k_regular),
                     (nilcone_test, _old_nilcone_test)):
        _assert_same(new(alg, cd, z), old(alg, cd, z))


def test_differential_elements_reach_every_verdict(sl2, sl3, su21,
                                                   sl3_rescaled):
    verdicts = set()
    for alg, cd in (sl2, sl3, su21, sl3_rescaled):
        for kind in ("z", "block", "nil", "zero"):
            z = _element(alg, cd, kind, Z_SL3[:alg.dim])
            verdicts.add(nilcone_test(alg, cd, z).verdict)
    assert verdicts == {"k-regular", "nil-k", "neither"}


@pytest.mark.parametrize("func", [is_k_regular, nilcone_test])
def test_full_mode_runs_no_exact_filtration_and_splits_z_once(
        func, sl2, sl3, monkeypatch):
    calls = count_filtrations(monkeypatch)
    splits = []
    original = certify.decompose

    def counting(*args):
        splits.append(args)
        return original(*args)

    monkeypatch.setattr(certify, "decompose", counting)
    for (alg, cd), z in ((sl3, Z_SL3), (sl3, _SL3_NIL), (sl3, vec(8)),
                         (sl2, (ONE, I, I))):
        del splits[:]
        assert func(alg, cd, z).mode == "full"
        assert len(splits) == 1
    assert not calls


@pytest.mark.parametrize("case", ["unlucky-prime", "denominator-p"])
def test_forced_fallback_runs_one_exact_filtration(case, sl3, monkeypatch):
    """A full word span that the F_p pass leaves open is checked against
    the exact filtration, once per certificate."""
    alg, cd = sl3
    plain = is_k_regular(alg, cd, Z_SL3)
    if case == "unlucky-prime":
        # p = 13 with s = 5: 13 z maps to 0 in F_13, and z itself does not
        monkeypatch.setattr(certify, "MODP_PRIME", 13)
        monkeypatch.setattr(certify, "MODP_I", 5)
        z = tuple(13 * a for a in Z_SL3)
    else:
        z = (Scalar(Fraction(1, certify.MODP_PRIME)),) + Z_SL3[1:]
    calls = count_filtrations(monkeypatch)
    assert is_k_regular(alg, cd, Z_SL3).to_dict() == plain.to_dict()
    assert not calls
    for func in (is_k_regular, nilcone_test):
        del calls[:]
        cert = func(alg, cd, z)
        assert len(calls) == 1, func.__name__
        assert cert.verdict == "k-regular"
        assert cert.subalgebra.to_dict() == plain.subalgebra.to_dict()


@pytest.mark.parametrize("func", [is_k_regular, nilcone_test])
def test_modp_disagreement_is_a_soundness_error(func, sl2, sl3, monkeypatch):
    # a full F_p span at degree 1 contradicts every word report: a
    # deficient span (nil, zero) and a stabilization degree of 2 or more
    claim_modp_span_at_degree_one(monkeypatch)
    for (alg, cd), z in ((sl2, (ONE, I, I)), (sl2, vec(3)), (sl3, Z_SL3)):
        with pytest.raises(SoundnessError, match="disagree"):
            func(alg, cd, z)


@pytest.mark.parametrize("func", [is_k_regular, nilcone_test])
def test_fallback_disagreement_is_a_soundness_error(func, sl3, monkeypatch):
    alg, cd = sl3
    monkeypatch.setattr(certify, "MODP_PRIME", 13)
    monkeypatch.setattr(certify, "MODP_I", 5)
    flip_regularity(monkeypatch)
    assert func(alg, cd, Z_SL3).verdict == "k-regular"  # decided over F_13
    with pytest.raises(SoundnessError, match="disagree"):
        func(alg, cd, tuple(13 * a for a in Z_SL3))


def _x_only_filtration(x, y, span, bracket_of, limit):
    """certify._filtration with the fault that each degree after the
    second brackets its new vectors with x only."""
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
            w = bracket_of(x, v)
            if span.add(w):
                new.append(w)
        frontier = new
    return per_degree, m


def test_x_only_filtration_fails_the_sl3_suites(sl3, monkeypatch):
    """Full-mode certificates run the filtration loop only over F_p, and
    in its exact fallback; the mutant still fails both sl(3) records."""
    alg, cd = sl3
    monkeypatch.setattr(certify, "_filtration", _x_only_filtration)
    # the F_p pass no longer reaches all of g, so the exact filtration
    # decides, and its short span disagrees with the word values
    assert certify.stabilization_bound(alg, cd, Z_SL3) is None
    with pytest.raises(SoundnessError, match="disagree"):
        is_k_regular(alg, cd, Z_SL3)
    for suite, name in (("regularity", "verdict-agreement"),
                        ("nilcone", "cartan-criterion")):
        report = verify.verify_suite(alg, cd, suite, seed=1, samples=2)
        record = {r.name: r for r in report.records}[name]
        assert record.failures == record.checks_run > 0, suite
        assert "disagree" in record.first_counterexample


def test_modp_bracket_is_built_once_per_algebra_and_prime(monkeypatch):
    alg, cd = catalog_build.__wrapped__("split-sl", 3)  # past the cache
    built = []
    original = algebra._modp_bracket

    def counting(alg, p, s):
        built.append((p, s))
        return original(alg, p, s)

    monkeypatch.setattr(algebra, "_modp_bracket", counting)
    for _ in range(3):
        is_k_regular(alg, cd, Z_SL3)
        certify.stabilization_bound(alg, cd, Z_SL3)
    assert built == [(certify.MODP_PRIME, certify.MODP_I)]
    # a patched prime gets its own table, read from the patched constants
    monkeypatch.setattr(certify, "MODP_PRIME", 13)
    monkeypatch.setattr(certify, "MODP_I", 5)
    assert certify.stabilization_bound(alg, cd, Z_SL3) is not None
    assert is_k_regular(alg, cd, Z_SL3).verdict == "k-regular"
    assert built == [(1_000_000_009, 430_477_711), (13, 5)]
    assert modp_bracket(alg, 13, 5) is modp_bracket(alg, 13, 5)
    assert modp_bracket(alg, 13, 5) is not modp_bracket(alg, 13, 8)
