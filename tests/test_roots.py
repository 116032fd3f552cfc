import dataclasses
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from kregular import roots
from kregular.algebra import bracket, decompose
from kregular.catalog import catalog_build
from kregular.certify import generated_subalgebra, is_k_regular
from kregular.errors import CatalogError, SoundnessError
from kregular.linalg import linear_combination, vec_is_zero
from kregular.roots import (
    RestrictedRoot,
    RestrictedRootDatum,
    _box_candidates,
    build_regular,
    catalog_datum,
    choose_x0,
    choose_y,
    construct_regular,
    validate_datum,
    zeta_value,
)
from kregular.scalar import I, Scalar, ZERO

from conftest import sc, vec


def test_catalog_datum_validates(sl2, sl3, sl4):
    for alg, cd in (sl2, sl3, sl4):
        datum = catalog_datum(alg, cd)
        report = validate_datum(alg, cd, datum)
        assert report.ok, report.first_failure
        n = round((alg.dim + 1) ** 0.5)
        assert datum.dim_a == n - 1
        assert len(datum.roots) == n * (n - 1)
        assert datum.hm_basis == ()


def test_catalog_datum_refuses_unknown_family(su21):
    alg, cd = su21
    with pytest.raises(CatalogError):
        catalog_datum(alg, cd)


def test_choose_y_sl2(sl2):
    alg, cd = sl2
    datum = catalog_datum(alg, cd)
    y = choose_y(datum)
    assert y == vec(3, e0=1)  # h itself separates the two roots
    assert zeta_value(datum, (sc(1),)) == Scalar(-16)


def test_choose_y_sl3(sl3):
    alg, cd = sl3
    datum = catalog_datum(alg, cd)
    y = choose_y(datum)
    assert y == vec(8, e0=1, e1=-2)  # H1 - 2 H2
    values = [r.value_at((sc(1), sc(-2))) for r in datum.roots]
    assert len(set(values)) == len(values)
    assert all(values)


def _old_choose_y(datum, max_half_width=64):
    """choose_y as it was before the Gaussian-integer search: every
    candidate's root values in Scalar arithmetic."""
    ambient = len(datum.a_basis[0]) if datum.a_basis else 0
    if not datum.a_basis:
        raise ValueError("datum has an empty Cartan subspace")
    if not datum.roots:
        return datum.a_basis[0]
    for tup in _box_candidates(datum.dim_a, max_half_width):
        coeffs = [Scalar(c) for c in tup]
        values = [r.value_at(coeffs) for r in datum.roots]
        if any(not v for v in values):
            continue
        if len(set(values)) != len(values):
            continue
        return linear_combination(coeffs, datum.a_basis, ambient)
    raise SoundnessError("no valid y found")


def _outcome(choose, datum, **kwargs):
    try:
        return choose(datum, **kwargs)
    except SoundnessError:
        return "no y"


def _value_table_datum(tables):
    """A datum with only a-basis and root values: unit a-basis vectors
    of C^(dim a), root spaces left empty."""
    dim_a = len(tables[0])
    basis = tuple(tuple(Scalar(int(i == k)) for i in range(dim_a))
                  for k in range(dim_a))
    roots = tuple(RestrictedRoot(tuple(t), ()) for t in tables)
    return RestrictedRootDatum(a_basis=basis, hm_basis=(), roots=roots,
                               positive=())


def test_choose_y_matches_scalar_search_on_catalog_and_su21(su21_datum):
    for n in (2, 3, 4, 5):
        alg, cd = catalog_build("split-sl", n)
        datum = catalog_datum(alg, cd)
        assert choose_y(datum) == _old_choose_y(datum)
    assert choose_y(su21_datum) == _old_choose_y(su21_datum)


def test_choose_y_skips_vanishing_and_colliding_candidates():
    half, third = Scalar(Fraction(1, 2)), I * Scalar(Fraction(1, 3))
    datum = _value_table_datum([
        (half, ZERO),  # vanishes at (0, 1) and (0, -1)
        (ZERO, third),  # vanishes at (1, 0)
        (third, half),  # collides with the next root at (1, 1)
        (half, third),
    ])
    y = choose_y(datum)
    assert y == (Scalar(1), Scalar(-1)) == _old_choose_y(datum)
    # values that differ only in their denominators never collide
    datum = _value_table_datum([(Scalar(Fraction(s, d)),)
                                for s in (1, -1) for d in (2, 3)])
    assert choose_y(datum) == (Scalar(1),) == _old_choose_y(datum)


gaussian_rationals = st.builds(
    lambda a, b, c, d: Scalar(Fraction(a, b), Fraction(c, d)),
    st.integers(-3, 3), st.integers(1, 4), st.integers(-3, 3),
    st.integers(1, 4))
root_values = st.one_of(st.just(ZERO), st.just(Scalar(1)), gaussian_rationals)
# a search that dropped denominators or mixed real and imaginary parts
# would see false collisions between a root and these rescalings of it
rescalings = st.sampled_from((Scalar(Fraction(1, 2)), Scalar(Fraction(2, 3)),
                              I, I * Scalar(Fraction(1, 3))))


@st.composite
def value_tables(draw):
    """Root-value tables whose early candidates often vanish or collide:
    small entries, many zeros, and roots that repeat, negate or rescale
    earlier ones."""
    dim_a = draw(st.integers(1, 3))
    tables = []
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("drawn", "negated", "repeated",
                                     "rescaled")))
        if kind != "drawn" and i:
            earlier = tables[draw(st.integers(0, i - 1))]
            factor = draw(rescalings) if kind == "rescaled" \
                else Scalar(-1 if kind == "negated" else 1)
            tables.append(tuple(factor * v for v in earlier))
        else:
            tables.append(tuple(draw(st.lists(
                root_values, min_size=dim_a, max_size=dim_a))))
    return tables


@settings(max_examples=150, deadline=None)
@given(value_tables())
def test_choose_y_matches_scalar_search_on_drawn_tables(tables):
    datum = _value_table_datum(tables)
    with patch.object(roots, "MAX_HALF_WIDTH", 3):
        assert _outcome(choose_y, datum) \
            == _outcome(_old_choose_y, datum, max_half_width=3)


def test_choose_x0_trivial_for_split(sl3):
    alg, cd = sl3
    datum = catalog_datum(alg, cd)
    assert vec_is_zero(choose_x0(alg, datum))


def test_construct_regular_sl2(sl2):
    alg, cd = sl2
    ez = construct_regular(alg, cd, catalog_datum(alg, cd))
    assert ez.z == vec(3, e0=1, e1=1, e2=-1)  # h + (e - f)
    assert ez.x == vec(3, e1=1, e2=-1)
    assert ez.y == vec(3, e0=1)
    # the certificate computed on the spot travels with the element
    assert ez.certificate.verdict == "k-regular"
    assert ez.certificate.to_dict() == is_k_regular(alg, cd, ez.z).to_dict()
    assert ez.certificate.subalgebra.dim == alg.dim
    assert ez == dataclasses.replace(ez, certificate=None)
    assert "certificate" not in repr(ez)
    assert decompose(cd, ez.z).certificate is None


def test_build_regular_is_the_uncertified_construction(sl2, su21,
                                                      su21_datum):
    for (alg, cd), datum in ((sl2, catalog_datum(*sl2)), (su21, su21_datum)):
        built = build_regular(alg, cd, datum)
        assert built.certificate is None
        ez = construct_regular(alg, cd, datum)
        assert (built.z, built.x, built.y) == (ez.z, ez.x, ez.y)


def test_construct_regular_sl3_sl4(sl3, sl4):
    for alg, cd in (sl3, sl4):
        ez = construct_regular(alg, cd, catalog_datum(alg, cd))
        assert generated_subalgebra(alg, cd, ez.z).dim == alg.dim
        # deterministic: a second run gives the identical element
        assert construct_regular(alg, cd, catalog_datum(alg, cd)).z == ez.z


def test_su21_datum_validates(su21, su21_datum):
    alg, cd = su21
    report = validate_datum(alg, cd, su21_datum)
    assert report.ok, report.first_failure
    assert su21_datum.mult_high == (0,)


def test_su21_choose_y(su21, su21_datum):
    alg, cd = su21
    y = choose_y(su21_datum)
    assert y == su21_datum.a_basis[0]  # values 1, -1, 2, -2 already distinct


def test_su21_choose_x0(su21, su21_datum):
    alg, cd = su21
    x0 = choose_x0(alg, su21_datum)
    assert x0 == su21_datum.hm_basis[0]
    # x0 acts cyclically on the multiplicity-2 root space: its two basis
    # vectors have distinct ad-x0 eigenvalues 3 and -3
    b1, b2 = su21_datum.roots[0].space
    assert bracket(alg, x0, b1) == tuple(Scalar(3) * c for c in b1)
    assert bracket(alg, x0, b2) == tuple(Scalar(-3) * c for c in b2)


def test_su21_construct_regular(su21, su21_datum):
    alg, cd = su21
    ez = construct_regular(alg, cd, su21_datum)
    cert = is_k_regular(alg, cd, ez.z)
    assert cert.verdict == "k-regular"
    # x0 contributes: the k-part is not just the root-vector sum
    assert decompose(cd, ez.z).x == ez.x
    assert not vec_is_zero(ez.x)


def test_choose_x0_requires_hm(su21, su21_datum):
    alg, cd = su21
    stripped = RestrictedRootDatum(
        a_basis=su21_datum.a_basis, hm_basis=(),
        roots=su21_datum.roots, positive=su21_datum.positive)
    report = validate_datum(alg, cd, stripped)
    names = {c.name: c.passed for c in report.checks}
    assert not names["mult-high-needs-hm"]
    with pytest.raises(Exception):
        choose_x0(alg, stripped)


def test_validate_datum_catches_wrong_eigenvalue(sl2):
    alg, cd = sl2
    datum = catalog_datum(alg, cd)
    wrong = RestrictedRoot((sc(3),), datum.roots[0].space)
    broken = RestrictedRootDatum(
        a_basis=datum.a_basis, hm_basis=(),
        roots=(wrong, datum.roots[1]), positive=(0,))
    report = validate_datum(alg, cd, broken)
    names = {c.name: c.passed for c in report.checks}
    assert not names["root-eigenvectors"]


def test_validate_datum_catches_bad_positive_set(sl2):
    alg, cd = sl2
    datum = catalog_datum(alg, cd)
    broken = RestrictedRootDatum(
        a_basis=datum.a_basis, hm_basis=(),
        roots=datum.roots, positive=(0, 1))
    report = validate_datum(alg, cd, broken)
    names = {c.name: c.passed for c in report.checks}
    assert not names["positive-set"]


@pytest.mark.parametrize("positive, mult_high_ok",
                         [((5,), True), ((-1,), True), ((0, 9), False)])
def test_validate_datum_out_of_range_positive_is_a_failure(
        su21, su21_datum, positive, mult_high_ok):
    # a failed check, never an IndexError; the mult-high check reads only
    # the in-range positive roots (root 0 has multiplicity 2)
    alg, cd = su21
    broken = RestrictedRootDatum(
        a_basis=su21_datum.a_basis, hm_basis=(),
        roots=su21_datum.roots, positive=positive)
    names = {c.name: c.passed for c in validate_datum(alg, cd, broken).checks}
    assert not names["positive-set"]
    assert names["mult-high-needs-hm"] == mult_high_ok


def test_validate_datum_catches_missing_root(sl3):
    alg, cd = sl3
    datum = catalog_datum(alg, cd)
    broken = RestrictedRootDatum(
        a_basis=datum.a_basis, hm_basis=(),
        roots=datum.roots[:-2], positive=datum.positive[:-1])
    report = validate_datum(alg, cd, broken)
    assert not report.ok
