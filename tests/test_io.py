import json

import pytest

from kregular import io as kio
from kregular.errors import SchemaError, ValidationFailure
from kregular.roots import validate_datum
from kregular.scalar import I, ONE, Scalar, ZERO

from conftest import vec


def test_algebra_round_trip(sl3):
    alg, cd = sl3
    doc = json.loads(json.dumps(kio.dump_algebra(alg, cd)))
    alg2, cd2 = kio.load_algebra(doc)
    assert alg2.dim == alg.dim
    assert alg2.basis_labels == alg.basis_labels
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg2.table(i, j) == alg.table(i, j)
    assert cd2.theta == cd.theta


def test_su21_round_trip(su21, su21_datum):
    alg, cd = su21
    alg2, cd2 = kio.load_algebra(kio.dump_algebra(alg, cd))
    assert cd2.dim_k == 4 and cd2.dim_p == 4
    datum2 = kio.load_datum(kio.dump_datum(su21_datum), alg2, cd2)
    assert validate_datum(alg2, cd2, datum2).ok


def test_element_round_trip():
    v = (Scalar(3) / Scalar(2), -I, ONE + I / Scalar(7))
    doc = json.loads(json.dumps(kio.dump_element(v)))
    assert kio.load_element(doc, 3) == v


def test_element_rejects_wrong_length():
    with pytest.raises(SchemaError):
        kio.load_element({"coeffs": [[1, 1, 0, 1]]}, 3)
    with pytest.raises(SchemaError):
        kio.load_element({"values": []}, 1)


def test_algebra_missing_theta(sl2):
    alg, cd = sl2
    doc = kio.dump_algebra(alg, cd)
    del doc["theta"]
    with pytest.raises(SchemaError, match="theta"):
        kio.load_algebra(doc)


def test_algebra_bad_scalar(sl2):
    alg, cd = sl2
    doc = kio.dump_algebra(alg, cd)
    doc["structure"][0][2][0] = [1, 0, 0, 1]  # zero denominator
    with pytest.raises(SchemaError):
        kio.load_algebra(doc)


def test_algebra_bad_indices(sl2):
    alg, cd = sl2
    doc = kio.dump_algebra(alg, cd)
    doc["structure"][0][0] = 5
    doc["structure"][0][1] = 2
    with pytest.raises(SchemaError):
        kio.load_algebra(doc)


def test_load_rejects_non_jacobi_table(sl2):
    alg, cd = sl2
    doc = kio.dump_algebra(alg, cd)
    # corrupt [h, e]: replace 2e by 2f, breaking the Jacobi identity
    for entry in doc["structure"]:
        if entry[:2] == [0, 1]:
            entry[2] = [s.to_quad() for s in vec(3, e2=2)]
    with pytest.raises(ValidationFailure) as exc_info:
        kio.load_algebra(doc)
    assert exc_info.value.check in ("jacobi", "killing-nondegenerate")


def test_load_rejects_broken_involution(sl2):
    alg, cd = sl2
    doc = kio.dump_algebra(alg, cd)
    doc["theta"][0] = [s.to_quad() for s in vec(3, e0=2)]
    with pytest.raises(ValidationFailure) as exc_info:
        kio.load_algebra(doc)
    assert exc_info.value.check == "theta-involution"


def test_read_write_json(tmp_path):
    path = tmp_path / "element.json"
    kio.write_json(str(path), kio.dump_element(vec(3, e0=1)))
    assert kio.read_json(str(path)) == {"coeffs": [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]}
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SchemaError):
        kio.read_json(str(bad))


def test_datum_schema_errors(sl2):
    alg, cd = sl2
    with pytest.raises(SchemaError):
        kio.load_datum({"a_basis": []}, alg, cd)
    with pytest.raises(SchemaError):
        kio.load_datum({"a_basis": [], "roots": [{}], "positive": []}, alg, cd)


@pytest.mark.parametrize("bad", [True, "1_000", " 7", "\u0663", "7" * 5000])
def test_element_quads_follow_the_integer_rule(bad):
    with pytest.raises(SchemaError, match="bad scalar encoding"):
        kio.load_element({"coeffs": [[bad, 1, 0, 1]]}, 1)


@pytest.mark.parametrize("dim", [True, 2.0, "3", 0])
def test_algebra_dim_must_be_a_positive_int(dim):
    with pytest.raises(SchemaError, match="dim"):
        kio.load_algebra({"name": "x", "dim": dim, "structure": [], "theta": []})


@pytest.mark.parametrize("content", [
    b'{"coeffs": [\xff]}',
    b"[" * 100000,
    b'{"coeffs": [[' + b"7" * 5000 + b', 1, 0, 1]]}',
    b"{nope",
])
def test_read_json_names_every_undecodable_file(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(SchemaError, match="invalid JSON in .*doc.json"):
        kio.read_json(str(path))
