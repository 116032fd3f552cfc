import dataclasses

import pytest

from kregular.algebra import bracket, decompose
from kregular.certify import generated_subalgebra, is_k_regular
from kregular.errors import CatalogError
from kregular.linalg import vec_is_zero
from kregular.roots import (
    RestrictedRoot,
    RestrictedRootDatum,
    catalog_datum,
    choose_x0,
    choose_y,
    construct_regular,
    validate_datum,
    zeta_value,
)
from kregular.scalar import Scalar, ZERO

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
    assert su21_datum.mult_one == (2,)


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


def test_validate_datum_catches_missing_root(sl3):
    alg, cd = sl3
    datum = catalog_datum(alg, cd)
    broken = RestrictedRootDatum(
        a_basis=datum.a_basis, hm_basis=(),
        roots=datum.roots[:-2], positive=datum.positive[:-1])
    report = validate_datum(alg, cd, broken)
    assert not report.ok
