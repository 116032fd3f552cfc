"""JSON schemas for algebras, elements, and restricted-root data.

Scalars travel as 4-integer arrays [re_num, re_den, im_num, im_den].  An
integer is a JSON integer other than true/false, or a string matching the
ASCII pattern [+-]?[0-9]+ (no spaces, underscores or other digits); both
stop at Python's integer-string limit, 4300 digits by default.  read_json
turns whatever it cannot decode into a SchemaError naming the path.
Loading always validates, shape first; a document that parses but
violates an invariant is rejected with the name of the failed check.
build_algebra stops before validation, for a caller that reports it.
"""

from __future__ import annotations

import json
import sys
from typing import Sequence

from .algebra import CartanDecomposition, LieAlgebra, validate
from .errors import SchemaError, ValidationFailure
from .linalg import MatrixQ, Vector
from .roots import RestrictedRoot, RestrictedRootDatum, validate_datum
from .scalar import Scalar


def _scalar_from_json(obj) -> Scalar:
    try:
        return Scalar.from_quad(obj)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad scalar encoding {obj!r}: {exc}") from exc


def _vector_from_json(obj, dim: int) -> Vector:
    if not isinstance(obj, list) or len(obj) != dim:
        raise SchemaError(f"expected a vector of {dim} scalars")
    return tuple(_scalar_from_json(q) for q in obj)


def _vector_to_json(v: Sequence[Scalar]) -> list:
    return [s.to_quad() for s in v]


def dump_algebra(alg: LieAlgebra, cd: CartanDecomposition) -> dict:
    structure = []
    for (i, j), terms in sorted(alg.structure.items()):
        if i < j:
            dense = alg.table(i, j)
            structure.append([i, j, _vector_to_json(dense)])
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis_labels": list(alg.basis_labels),
        "structure": structure,
        "theta": [
            _vector_to_json(cd.theta.row(i)) for i in range(cd.theta.rows)
        ],
    }


def build_algebra(doc: dict) -> tuple:
    """Check an algebra document's shape and build (alg, cd), unvalidated."""
    if not isinstance(doc, dict):
        raise SchemaError("algebra document must be a JSON object")
    for key in ("name", "dim", "structure", "theta"):
        if key not in doc:
            raise SchemaError(f"algebra document missing {key!r}")
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise SchemaError("dim must be a positive integer")
    labels = doc.get("basis_labels")
    if labels is not None and not (isinstance(labels, list)
                                   and len(labels) == dim):
        raise SchemaError("basis_labels must be a list of dim labels")
    if not isinstance(doc["structure"], list):
        raise SchemaError("structure must be a list of [i, j, coeffs] entries")
    theta_rows = doc["theta"]
    if not (isinstance(theta_rows, list) and len(theta_rows) == dim):
        raise SchemaError("theta must be a dim x dim array")

    lower = {}
    for entry in doc["structure"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SchemaError("structure entries must be [i, j, coeffs]")
        i, j, coeffs = entry
        if not (type(i) is int and type(j) is int and 0 <= i < j < dim):
            raise SchemaError(f"structure indices must satisfy 0 <= i < j < dim, got ({i},{j})")
        lower[(i, j)] = _vector_from_json(coeffs, dim)
    theta = MatrixQ.from_rows([_vector_from_json(r, dim) for r in theta_rows])
    # shapes are checked first: the algebra's Killing form costs O(dim^4)
    alg = LieAlgebra.from_lower_table(doc["name"], dim, lower,
                                      basis_labels=labels)
    return alg, CartanDecomposition(theta)


def load_algebra(doc: dict) -> tuple:
    """Parse and fully validate an algebra document; returns (alg, cd)."""
    alg, cd = build_algebra(doc)
    _raise_first_failure(validate(alg, cd))
    return alg, cd


def _raise_first_failure(report) -> None:
    bad = report.first_failure
    if bad is not None:
        raise ValidationFailure(bad.name, bad.detail)


def dump_element(v: Sequence[Scalar]) -> dict:
    return {"coeffs": _vector_to_json(v)}


def load_element(doc: dict, dim: int) -> Vector:
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise SchemaError("element document must be an object with 'coeffs'")
    return _vector_from_json(doc["coeffs"], dim)


def dump_datum(datum: RestrictedRootDatum) -> dict:
    return {
        "a_basis": [_vector_to_json(v) for v in datum.a_basis],
        "hm_basis": [_vector_to_json(v) for v in datum.hm_basis],
        "roots": [
            {
                "values_on_a_basis": _vector_to_json(r.values),
                "space": [_vector_to_json(v) for v in r.space],
            }
            for r in datum.roots
        ],
        "positive": list(datum.positive),
    }


def _list_field(obj, name: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{name} must be a list, got {type(obj).__name__}")
    return obj


def _vectors_from_json(obj, dim: int, name: str) -> tuple:
    return tuple(_vector_from_json(v, dim) for v in _list_field(obj, name))


def load_datum(doc: dict, alg: LieAlgebra,
               cd: CartanDecomposition) -> RestrictedRootDatum:
    """Parse and validate a restricted-root datum document."""
    if not isinstance(doc, dict):
        raise SchemaError("datum document must be a JSON object")
    for key in ("a_basis", "roots", "positive"):
        if key not in doc:
            raise SchemaError(f"datum document missing {key!r}")
    dim = alg.dim
    a_basis = _vectors_from_json(doc["a_basis"], dim, "a_basis")
    hm_basis = _vectors_from_json(doc.get("hm_basis", []), dim, "hm_basis")
    roots = []
    for r in _list_field(doc["roots"], "roots"):
        if not isinstance(r, dict) or "values_on_a_basis" not in r or "space" not in r:
            raise SchemaError("each root needs 'values_on_a_basis' and 'space'")
        values = _vector_from_json(r["values_on_a_basis"], len(a_basis))
        space = _vectors_from_json(r["space"], dim, "root space")
        if not space:
            raise SchemaError("root space must be nonempty")
        roots.append(RestrictedRoot(values, space))
    positive = tuple(_list_field(doc["positive"], "positive"))
    if not all(type(i) is int for i in positive):
        raise SchemaError("positive must be a list of integer root indices")
    datum = RestrictedRootDatum(
        a_basis=a_basis, hm_basis=hm_basis, roots=tuple(roots), positive=positive)
    _raise_first_failure(validate_datum(alg, cd, datum))
    return datum


def read_json(path: str) -> dict:
    """Load a JSON document from a UTF-8 file, or from stdin when path is
    '-'.  OSError passes through; anything undecodable is a SchemaError."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bad UTF-8, an over-long integer
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
