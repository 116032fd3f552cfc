import dataclasses
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from kregular import certify, roots, verify, words
from kregular.catalog import catalog_build
from kregular.certify import derived_series, generated_subalgebra
from kregular.cli import main
from kregular.errors import SoundnessError
from kregular.linalg import MatrixQ, is_nilpotent_matrix, linear_combination
from kregular.scalar import I, ONE, ZERO, Scalar
from kregular.algebra import LieAlgebra, ad_matrix, decompose
from kregular.verify import (
    SUITES,
    VerifyReport,
    brute_force_lyndon_count,
    sample_element,
    verify_suite,
)
from kregular.words import witt_dimension

import random

from conftest import (
    SL4_NIL,
    Z_SL4_ZERO_GRAM,
    claim_modp_span_at_degree_one,
    count_filtrations,
    matrix_element,
)


def test_all_suites_pass_on_sl2(sl2):
    alg, cd = sl2
    report = verify_suite(alg, cd, "all", seed=3, samples=8)
    assert report.ok, report.body_dict()
    names = {r.name for r in report.records}
    assert {"stabilization", "verdict-agreement", "cartan-criterion",
            "hand-oracle", "construct-certified", "witt-formula",
            "degree-bound"} <= names


def test_suites_pass_on_su21(su21, su21_datum):
    alg, cd = su21
    for suite in ("stabilization", "regularity", "nilcone", "appendix"):
        report = verify_suite(alg, cd, suite, seed=5, samples=4,
                              datum=su21_datum)
        assert report.ok, (suite, report.body_dict())


def test_report_deterministic(sl3):
    alg, cd = sl3
    a = verify_suite(alg, cd, "stabilization", seed=9, samples=6)
    b = verify_suite(alg, cd, "stabilization", seed=9, samples=6)
    assert a.body_dict() == b.body_dict()
    c = verify_suite(alg, cd, "stabilization", seed=10, samples=6)
    assert [r.checks_run for r in c.records] == [6]


def test_jobs_do_not_change_report(sl2):
    alg, cd = sl2
    a = verify_suite(alg, cd, "regularity", seed=2, samples=5, jobs=1)
    b = verify_suite(alg, cd, "regularity", seed=2, samples=5, jobs=3)
    assert a.body_dict() == b.body_dict()


def test_suites_reuse_the_certificate_filtration(sl2, su21, monkeypatch):
    monkeypatch.setattr(certify, "GRAM_LIMIT", 0)  # reduced mode keeps su21 fast
    calls = count_filtrations(monkeypatch, verify)
    alg, cd = su21
    report = verify_suite(alg, cd, "regularity", seed=1, samples=3)
    assert report.ok
    assert len(calls) == 3
    del calls[:]
    # the constructed element is certified once, inside construct_regular
    alg, cd = sl2
    report = verify_suite(alg, cd, "regularity", seed=1, samples=3)
    assert report.ok
    assert len(calls) == 3 + 1
    del calls[:]
    # and the appendix reuses that g(z); its determinism rerun rebuilds the
    # element without certifying it again
    report = verify_suite(alg, cd, "appendix", seed=1, samples=1)
    assert report.ok
    assert len(calls) == 1
    del calls[:]
    alg, cd = sl2
    report = verify_suite(alg, cd, "nilcone", seed=1, samples=3)
    assert report.ok
    assert len(calls) == len(verify._sl2_curated(alg)) + 3


def test_appendix_certifies_the_element_once(sl2, su21, su21_datum,
                                             monkeypatch):
    monkeypatch.setattr(certify, "GRAM_LIMIT", 0)  # reduced mode keeps su21 fast
    calls = []
    original = certify.is_k_regular

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # construct_regular looks is_k_regular up in certify
    monkeypatch.setattr(certify, "is_k_regular", counting)
    monkeypatch.setattr(verify, "is_k_regular", counting)
    for (alg, cd), datum in ((sl2, None), (su21, su21_datum)):
        del calls[:]
        report = verify_suite(alg, cd, "appendix", seed=1, samples=1,
                              datum=datum)
        assert report.ok, report.body_dict()
        assert len(calls) == 1


def test_determinism_catches_a_nondeterministic_build(sl2, monkeypatch):
    alg, cd = sl2
    original = roots.build_regular
    built = []

    def drifting(*args):
        ez = original(*args)
        built.append(ez)
        if len(built) == 1:
            return ez
        return dataclasses.replace(ez, z=(ez.z[0] + 1,) + ez.z[1:])

    # construct_regular looks build_regular up in roots, the rerun in verify
    monkeypatch.setattr(roots, "build_regular", drifting)
    monkeypatch.setattr(verify, "build_regular", drifting)
    report = verify_suite(alg, cd, "appendix", seed=0, samples=1)
    assert len(built) == 2
    records = {r.name: r for r in report.records}
    determinism = records["determinism"]
    assert (determinism.checks_run, determinism.failures) == (1, 1)
    assert determinism.first_counterexample \
        == "construction differs between runs"
    assert report.failures == 1


def test_invariance_residual_reads_the_killing_form(sl2):
    good, cd = sl2
    broken, _ = _sl2_with_identity_form()

    def records(alg):
        report = verify_suite(alg, cd, "invariance", seed=0, samples=1)
        return {r.name: r for r in report.records}

    good_recs, broken_recs = records(good), records(broken)
    residual = broken_recs["residual-zero"]
    assert good_recs["residual-zero"].failures == 0
    assert residual.checks_run == good_recs["residual-zero"].checks_run
    # the identity form is not ad-invariant, so some residual survives;
    # the count and the text are those of the Scalar sum
    # B(v_a, d_b) + B(d_a, v_b) over vec_dot
    assert residual.failures == 15
    assert residual.first_counterexample == "pair (Y,Y), residual -6i"
    assert broken_recs["equivariance"].failures == 0


def test_equivariance_oracle_catches_a_broken_integer_bracket(sl3,
                                                              monkeypatch):
    # the oracle applies ad u built from the structure table, not the word
    # evaluator's integer bracket, so zeroing that bracket's first output
    # coordinate fails both invariance records
    alg, cd = sl3
    original = words.gaussian_bracket

    def broken(alg, u, v):
        return ((0, 0),) + original(alg, u, v)[1:]

    monkeypatch.setattr(words, "gaussian_bracket", broken)
    report = verify_suite(alg, cd, "invariance", seed=0, samples=1)
    records = {r.name: (r.checks_run, r.failures, r.first_counterexample)
               for r in report.records}
    assert records == {
        "equivariance": (24, 18, "word XY"),
        "residual-zero": (108, 51, "pair (X,XYY), residual -1710-3360i"),
    }


def test_nilcone_suite_records_a_soundness_error(sl2, monkeypatch):
    # every sl(2) certificate is full mode, and fails its F_p cross-check
    alg, cd = sl2
    claim_modp_span_at_degree_one(monkeypatch)
    report = verify_suite(alg, cd, "nilcone", seed=0, samples=2)
    cartan = {r.name: r for r in report.records}["cartan-criterion"]
    assert cartan.failures == cartan.checks_run \
        == len(verify._sl2_curated(alg)) + 2
    assert "disagree" in cartan.first_counterexample


def _sampled_route(alg, rep) -> bool:
    """The solvability route as it stood before the basis argument: ad is
    also tested on 20 seeded random Q(i) members of g(z)."""
    if rep.dim == 0:
        return True
    if derived_series(alg, rep.reduced_basis)[-1] != 0:
        return False
    rng = random.Random(20240601)
    members = list(rep.basis)
    for _ in range(20):
        coeffs = [Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in rep.basis]
        members.append(linear_combination(coeffs, rep.basis, alg.dim))
    return all(is_nilpotent_matrix(ad_matrix(alg, w)[1]) for w in members)


_GAUSS = st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2))
# an sl(4) element whose g(z) is all of g, and y = u u^T for an isotropic
# u in sl(3)
_SL4_ANY = tuple(Scalar(k % 3 - 1, (k * 2) % 3 - 1) for k in range(15))
_U3 = (Scalar(3), Scalar(4), Scalar(0, 5))
_SL3_NIL = matrix_element(3, {(i, j): _U3[i] * _U3[j]
                               for i in range(3) for j in range(3)})
_SU21_BOREL = {(0, 1): ONE, (0, 2): ONE, (1, 2): ONE}


@st.composite
def _route_cases(draw):
    """(algebra, kind, coordinates, expected answer or None).  Kind 'k'
    or 'p' takes that part of the coordinates, so g(z) has dimension at
    most 1; 'z' takes them as they are.  Nil constructions are y = u u^T
    for an isotropic u on split sl(2) and sl(3), and an upper-triangular
    matrix on su(2,1), whose involution Ad diag(1, 1, -1) keeps x and y
    upper-triangular: g(z) is solvable, and nil exactly when the diagonal
    is 0."""
    name = draw(st.sampled_from(("sl2", "sl3", "su21")))
    n = 2 if name == "sl2" else 3
    kind = draw(st.sampled_from(("k", "p", "nil", "z")))
    if kind != "nil":
        return name, kind, tuple(draw(_GAUSS) for _ in range(n * n - 1)), None
    if name == "su21":
        d1, d2 = draw(_GAUSS), draw(_GAUSS)
        entries = {(0, 0): d1, (1, 1): d2, (2, 2): -d1 - d2}
        entries.update({(i, j): draw(_GAUSS)
                        for i in range(3) for j in range(i + 1, 3)})
        return name, "z", matrix_element(3, entries), None
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    u = ((Scalar(m), I * m) if n == 2 else
         (Scalar(m * m - k * k), Scalar(2 * m * k), I * (m * m + k * k)))
    u = draw(st.permutations(u))
    return name, "z", matrix_element(
        n, {(i, j): u[i] * u[j] for i in range(n) for j in range(n)}), True


@settings(max_examples=60, deadline=None)
@given(case=_route_cases())
@example(case=("sl2", "z", (ONE, ZERO, ZERO), False))  # h
@example(case=("sl2", "z", (ZERO, ONE, -ONE), False))  # e - f
@example(case=("sl2", "z", (ZERO, ZERO, ZERO), True))
@example(case=("sl3", "z", _SL3_NIL, True))
@example(case=("su21", "z", matrix_element(3, _SU21_BOREL), True))
@example(case=("su21", "z", matrix_element(
    3, {**_SU21_BOREL, (0, 0): ONE, (1, 1): -ONE}), False))
@example(case=("sl4", "z", Z_SL4_ZERO_GRAM, False))
@example(case=("sl4", "z", SL4_NIL, True))
@example(case=("sl4", "p", _SL4_ANY, None))
@example(case=("sl4", "z", _SL4_ANY, False))
def test_basis_route_matches_the_sampled_route(sl2, sl3, sl4, su21, case):
    """By Lie's theorem the basis of a solvable g(z) decides ad-nilpotency
    on all of it, so the sampled members never change the answer."""
    name, kind, coords, expected = case
    alg, cd = {"sl2": sl2, "sl3": sl3, "sl4": sl4, "su21": su21}[name]
    ez = decompose(cd, coords)
    z = {"k": ez.x, "p": ez.y, "z": coords}[kind]
    rep = generated_subalgebra(alg, cd, z)
    answer = verify._is_nil_by_solvability(alg, rep)
    assert answer == _sampled_route(alg, rep)
    assert expected is None or answer == expected


_SL3_BLOCK = (0, 1, 2, 4)  # H1, H2, E12, E21: the s(gl(2) x gl(1)) block


def _forced_samples(case):
    """sample_element with each sample made one the F_p pass leaves open."""
    original = verify.sample_element

    def forced(alg, rng, box=verify.DEFAULT_BOX):
        z = original(alg, rng, box)
        if case == "unlucky-prime":  # zero mod 13
            return tuple(13 * a for a in z)
        if case == "denominator-p":
            return (Scalar(Fraction(1, certify.MODP_PRIME)),) + z[1:]
        return tuple(a if k in _SL3_BLOCK else ZERO for k, a in enumerate(z))

    return forced


@pytest.mark.parametrize("case", ["unlucky-prime", "denominator-p",
                                  "deficient"])
def test_stabilization_suite_falls_back_to_the_exact_filtration(
        case, sl3, monkeypatch):
    alg, cd = sl3
    calls = count_filtrations(monkeypatch, verify)
    plain = verify_suite(alg, cd, "stabilization", seed=4, samples=5)
    # every plain sample is settled over F_p
    assert plain.ok and not calls
    monkeypatch.setattr(verify, "sample_element", _forced_samples(case))
    if case == "unlucky-prime":
        monkeypatch.setattr(certify, "MODP_PRIME", 13)
        monkeypatch.setattr(certify, "MODP_I", 5)
    report = verify_suite(alg, cd, "stabilization", seed=4, samples=5)
    assert len(calls) == 5
    assert report.body_dict() == plain.body_dict()


def test_stabilization_fallback_records_a_soundness_error(sl3, monkeypatch):
    alg, cd = sl3

    def broken(*args):
        raise SoundnessError("injected")

    monkeypatch.setattr(verify, "sample_element", _forced_samples("deficient"))
    monkeypatch.setattr(verify, "generated_subalgebra", broken)
    rec, = verify_suite(alg, cd, "stabilization", seed=4, samples=2).records
    assert (rec.checks_run, rec.failures) == (2, 2)
    assert rec.first_counterexample == "injected"


def test_unknown_suite_rejected(sl2):
    alg, cd = sl2
    with pytest.raises(ValueError):
        verify_suite(alg, cd, "everything")


def test_negative_samples_and_box_rejected(sl2):
    alg, cd = sl2
    with pytest.raises(ValueError, match="samples"):
        verify_suite(alg, cd, "stabilization", samples=-5)
    with pytest.raises(ValueError, match="box"):
        verify_suite(alg, cd, "stabilization", samples=1, box=-1)
    with pytest.raises(ValueError, match="jobs"):
        verify_suite(alg, cd, "stabilization", samples=1, jobs=0)


def test_soundness_error_is_a_recorded_failure(sl2, monkeypatch):
    alg, cd = sl2

    def broken(*args, **kwargs):
        raise SoundnessError("injected")

    # the constructed element is certified inside construct_regular,
    # which looks is_k_regular up in certify
    monkeypatch.setattr(verify, "is_k_regular", broken)
    monkeypatch.setattr(certify, "is_k_regular", broken)
    regularity = verify_suite(alg, cd, "regularity", seed=0, samples=2)
    agreement = {r.name: r for r in regularity.records}["verdict-agreement"]
    assert agreement.failures == agreement.checks_run == 3
    assert agreement.first_counterexample == "injected"

    monkeypatch.setattr(verify, "construct_regular", broken)
    regularity = verify_suite(alg, cd, "regularity", seed=0, samples=2)
    agreement = {r.name: r for r in regularity.records}["verdict-agreement"]
    assert agreement.failures == agreement.checks_run == 3
    appendix = verify_suite(alg, cd, "appendix", seed=0, samples=1)
    assert [(r.name, r.first_counterexample) for r in appendix.records] \
        == [("construct-certified", "injected")]


def test_unexpected_exception_is_a_recorded_failure(sl2, monkeypatch):
    alg, cd = sl2
    clean = verify_suite(alg, cd, "all", seed=0, samples=1)

    def broken(*args):
        raise ValueError("injected")

    monkeypatch.setitem(verify._SUITE_FUNCS, "invariance", broken)
    report = verify_suite(alg, cd, "all", seed=0, samples=1)
    crashed = [r for r in report.records if r.failures]
    assert [r.to_dict() for r in crashed] == [{
        "name": "invariance-runs",
        "statement": "the invariance suite runs to the end without an "
                     "unexpected exception",
        "checks_run": 1,
        "failures": 1,
        "first_counterexample": "ValueError: injected",
    }]
    # every other suite of all still runs, with the records it gives alone
    others = [r.to_dict() for r in clean.records
              if r.name not in ("residual-zero", "equivariance")]
    assert [r.to_dict() for r in report.records if not r.failures] == others
    assert report.failures == 1 and not report.ok

    result = CliRunner().invoke(main, ["verify", "-a", "sl2", "--suite",
                                       "invariance", "--samples", "1"])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit)
    doc = json.loads(result.output)
    assert doc["failures"] == 1
    assert doc["records"][0]["first_counterexample"] == "ValueError: injected"


def test_sample_element_is_seed_determined(sl2):
    alg, _ = sl2
    a = sample_element(alg, random.Random(4), box=3)
    b = sample_element(alg, random.Random(4), box=3)
    assert a == b
    assert all(abs(int(s.re.numerator)) <= 3 and abs(int(s.im.numerator)) <= 3
               for s in a)


def test_brute_force_lyndon_oracle():
    assert [brute_force_lyndon_count(j) for j in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    for j in range(1, 7):
        assert brute_force_lyndon_count(j) == witt_dimension(j)


def _sl2_with_identity_form():
    """sl(2) structure but with the cached invariant form deliberately
    replaced by the identity matrix: pairings are now wrong, so the
    Gram route and the solvability route must disagree somewhere."""
    good, cd = catalog_build("split-sl", 2)
    lower = {
        (i, j): good.table(i, j)
        for i in range(3) for j in range(i + 1, 3) if any(good.table(i, j))
    }
    broken = LieAlgebra.from_lower_table(
        "sl2", 3, lower, basis_labels=good.basis_labels, family="split-sl")
    broken.killing = MatrixQ.identity(3)
    return broken, cd


def test_corrupted_form_is_detected():
    alg, cd = _sl2_with_identity_form()
    report = verify_suite(alg, cd, "nilcone", seed=0, samples=0)
    assert report.failures > 0
    by_name = {r.name: r for r in report.records}
    assert by_name["cartan-criterion"].failures > 0
    assert by_name["cartan-criterion"].first_counterexample


def test_csv_shape(sl2):
    alg, cd = sl2
    report = verify_suite(alg, cd, "bounds", seed=0, samples=1)
    lines = report.to_csv().strip().splitlines()
    assert lines[0].split(",")[:4] == ["suite", "algebra", "seed", "samples"]
    assert len(lines) == 1 + len(report.records)
