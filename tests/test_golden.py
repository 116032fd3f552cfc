"""Golden outputs: certificate dictionaries and verify-report digests
pinned byte for byte.

Every value below was produced by the Fraction-based Gram build and the
unbounded rank_profile.  A faster kernel must reproduce them exactly:
mode, rank, verdict, witness indices and gram_hash of each certificate,
the full Gram of one sl(3) element, and the body_dict() of three seeded
verify runs.  The stabilization-suite digests and the CLI stdout digests
were produced when that suite ran the exact filtration on every sample;
the F_p bound must leave them unchanged.
"""

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from kregular import catalog_build
from click.testing import CliRunner

from kregular.catalog import _coords_of
from kregular.cli import main
from kregular.certify import gram_matrix, is_k_regular, nilcone_test
from kregular.scalar import I, ONE, ZERO, Scalar
from kregular.verify import verify_suite


def _digest(d) -> str:
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def _element(key, dim):
    """The pinned input named key = "sl<n>/<kind>", drawn from its own seed.

    box: Gaussian integers with parts in [-3, 3].  rational: Gaussian
    rationals with mixed denominators up to 16.  block: Gaussian integers
    on a block subalgebra's coordinates, zero elsewhere, so the verdict is
    neither.  nil: h + i(e + f) in sl(2), on the K-unstable cone; in
    sl(4), x + y with y = u u^T and x = u v^T - v u^T for the isotropic
    plane u = (3, 4, 5i, 0), v = (4, -3, 0, 5i).  zero-gram: the sl(4)
    element (1+i)(E12 - E21) + (1-i)(E34 - E43) of k, whose Gram vanishes
    while ad x is not nilpotent.
    """
    if key == "sl2/nil":
        return (ONE, I, I)
    if key == "sl4/nil":
        u = (Scalar(3), Scalar(4), Scalar(0, 5), ZERO)
        v = (Scalar(4), Scalar(-3), ZERO, Scalar(0, 5))
        return tuple(_coords_of([[u[i] * u[j] + u[i] * v[j] - v[i] * u[j]
                                  for j in range(4)] for i in range(4)], 4))
    if key == "sl4/zero-gram":
        m = [[ZERO] * 4 for _ in range(4)]
        m[0][1], m[1][0] = Scalar(1, 1), Scalar(-1, -1)
        m[2][3], m[3][2] = Scalar(1, -1), Scalar(-1, 1)
        return tuple(_coords_of(m, 4))
    rng = random.Random("golden/" + key)
    kind = key.split("/")[1]
    if kind == "box":
        return tuple(Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(dim))
    if kind == "rational":
        def q():
            return Fraction(rng.randint(-32, 32), rng.randint(1, 16))

        return tuple(Scalar(q(), q()) for _ in range(dim))
    support = BLOCKS[dim]
    return tuple(Scalar(rng.randint(-6, 6), rng.randint(-6, 6))
                 if k in support else ZERO for k in range(dim))


# Block supports by dim g.  The sl(2) basis is H1, E12, E21 and the sl(3)
# basis H1, H2, E12, E13, E21, E23, E31, E32; the sl(4) basis is H1-H3,
# then E_ij in lexicographic order.
BLOCKS = {
    3: (0,),  # the Cartan line
    8: (0, 1, 2, 4),  # s(gl(2) x gl(1))
    15: (0, 1, 2, 3, 4, 6, 7, 9, 10),  # s(gl(3) x gl(1))
}

GOLDEN_CERTIFICATES = {
    "sl2/block": {
        "degree_cap": 3, "mode": "full", "rank": 1,
        "dim_g": 3, "verdict": "neither",
        "witnesses": None,
        "gram_hash": "94a6e3b13032c4f947f04b2ffd45ff1e"
                     "dce3584c8492be63729fa874baae8d2d"},
    "sl2/box": {
        "degree_cap": 3, "mode": "full", "rank": 3,
        "dim_g": 3, "verdict": "k-regular",
        "witnesses": {"minor_rows": list(range(3)),
                      "minor_cols": list(range(3))},
        "gram_hash": "2555fdb80d5f2909061a772718ea00a8"
                     "6a6d50619999e9bfdb9a3a95507949b2"},
    "sl2/nil": {
        "degree_cap": 3, "mode": "full", "rank": 0,
        "dim_g": 3, "verdict": "nil-k",
        "witnesses": {"ad_x_exponent": 1, "ad_y_exponent": 3},
        "gram_hash": "2fd443e6049b75f9ed21587e554c8a24"
                     "f00dc4b19b4ee6aa1f7f14ed4f49199a"},
    "sl2/rational": {
        "degree_cap": 3, "mode": "full", "rank": 3,
        "dim_g": 3, "verdict": "k-regular",
        "witnesses": {"minor_rows": list(range(3)),
                      "minor_cols": list(range(3))},
        "gram_hash": "5a5efd0703d82a81add8c2849eca3aa3"
                     "460997ec5ece7a309c29ea23a687bbe6"},
    "sl3/block": {
        "degree_cap": 8, "mode": "full", "rank": 4,
        "dim_g": 8, "verdict": "neither",
        "witnesses": None,
        "gram_hash": "4c67dbb2f9a444944349f1c0157430eb"
                     "c83d1a7dd70f9a653e1e0d4855a8790d"},
    "sl3/box": {
        "degree_cap": 8, "mode": "full", "rank": 8,
        "dim_g": 8, "verdict": "k-regular",
        "witnesses": {"minor_rows": list(range(8)),
                      "minor_cols": list(range(8))},
        "gram_hash": "a2bcffd5aa8f1573c1eb253537037c01"
                     "a022caf64433b23429716ae495148b50"},
    "sl3/rational": {
        "degree_cap": 8, "mode": "full", "rank": 8,
        "dim_g": 8, "verdict": "k-regular",
        "witnesses": {"minor_rows": list(range(8)),
                      "minor_cols": list(range(8))},
        "gram_hash": "d4bc5d36bda29894c1c2cd44a456bb51"
                     "e2f3f03ab50ab161263c2cf12e721dc7"},
    "sl4/block": {
        "degree_cap": 15, "mode": "reduced", "rank": 9,
        "dim_g": 15, "verdict": "neither",
        "witnesses": None,
        "gram_hash": "494be0a59b6ca487468e8defdb4c209f"
                     "823fae0aa7ca71a74ac4b1d1357cc5c5"},
    "sl4/box": {
        "degree_cap": 15, "mode": "reduced", "rank": 15,
        "dim_g": 15, "verdict": "k-regular",
        "witnesses": {"minor_rows": list(range(15)),
                      "minor_cols": list(range(15))},
        "gram_hash": "b02814f9a2c495b81515d459d8e95b76"
                     "3704cb7f892121d16ab5afe6aa256d3a"},
    "sl4/nil": {
        "degree_cap": 15, "mode": "reduced", "rank": 0,
        "dim_g": 15, "verdict": "nil-k",
        "witnesses": {"ad_x_exponent": 3, "ad_y_exponent": 3},
        "gram_hash": "bd8dad413aa68ba905fb4b590f7e7b2b"
                     "d699186e12eecae6ad3cf0cfcd57afd1"},
    "sl4/rational": {
        "degree_cap": 15, "mode": "reduced", "rank": 15,
        "dim_g": 15, "verdict": "k-regular",
        "witnesses": {"minor_rows": list(range(15)),
                      "minor_cols": list(range(15))},
        "gram_hash": "a4f8b7502b6b5b270292f591a1c256cd"
                     "189ba438d0d685d07511686f2d72e8bd"},
    "sl4/zero-gram": {
        "degree_cap": 15, "mode": "reduced", "rank": 0,
        "dim_g": 15, "verdict": "neither",
        "witnesses": None,
        "gram_hash": "061dc64a9b2faf307289896076751a82"
                     "db19937408afc71bbf0d63a7a6193906"},
}

# sha256 of the sorted-key JSON of gram(include_matrix=True) for sl3/box
GOLDEN_SL3_MATRIX = (
    "b79b5926504046d548f4d51dc8b443ae"
    "62a41d17fbac6f7f311f58f9e61e9557")

# sha256 of the sorted-key JSON of body_dict(), seed 0, one sample
GOLDEN_REPORTS = {
    "sl2/nilcone": ("5da1d71eb35aa494d9dbf5c75564b6da"
                    "c2931a46d534385faff9b65aac648d19"),
    "sl3/invariance": ("4fff7b947753dbf7df06f44a7fe76651"
                       "0f70b29740b315deac49f1f16bcc20b2"),
    "sl4/appendix": ("a4193136d8641950dc25516ebb28087b"
                     "38724192f0d617f939f1556c9d74ee47"),
}


# sha256 of the sorted-key JSON of body_dict() of the stabilization suite,
# seed 20240601 and 100 samples, as acceptance #1 runs it
GOLDEN_STABILIZATION = {
    "sl2": ("9ded3cada9cada40d91d8ecb2f1faa09"
            "d69d7f440d2ea7090d4e68eee20b3220"),
    "sl3": ("2bf6e720bd9db6202647bc2ea7c022cd"
            "369fa8be6139aa5660bfc6a5de7f6319"),
    "sl4": ("ad24a9bfd603fdd616494ef1775f2497"
            "f0c38ec168ab9496ecfd64959d1dedea"),
}

# sha256 of `kregular verify -a <algebra> --suite <suite>` stdout, default
# seed and samples, with its wall_time_s line dropped
GOLDEN_CLI_VERIFY = {
    "sl2/stabilization": ("2a1e3a1aac31dd7a94f551c158db0d43"
                          "7d4fff4404ff947747846d045f831e7c"),
    "sl3/stabilization": ("d8514458fa82d91e4a31d9eb60a33fec"
                          "f76fdc18a36b70d897a71f3516d86762"),
    "sl2/all": ("9e763467f7590bd3686e047d746a2edf"
                "4d6ae5fc68fd27e352039596ca9af922"),
}


def _algebra(key):
    return catalog_build("split-sl", int(key.split("/")[0][2:]))


def certificate(key) -> dict:
    alg, cd = _algebra(key)
    kind = key.split("/")[1]
    test = nilcone_test if kind in ("nil", "zero-gram") else is_k_regular
    return test(alg, cd, _element(key, alg.dim)).to_dict()


def sl3_matrix_digest() -> str:
    alg, cd = _algebra("sl3/box")
    z = _element("sl3/box", alg.dim)
    return _digest(gram_matrix(alg, cd, z).to_dict(include_matrix=True))


def report_digest(key) -> str:
    alg, cd = _algebra(key)
    suite = key.split("/")[1]
    return _digest(verify_suite(alg, cd, suite, seed=0, samples=1).body_dict())


@pytest.mark.parametrize("key", sorted(GOLDEN_CERTIFICATES))
def test_certificate_is_golden(key):
    assert certificate(key) == GOLDEN_CERTIFICATES[key]


def test_sl3_gram_matrix_is_golden():
    assert sl3_matrix_digest() == GOLDEN_SL3_MATRIX


@pytest.mark.parametrize("key", sorted(GOLDEN_REPORTS))
def test_report_body_is_golden(key):
    assert report_digest(key) == GOLDEN_REPORTS[key]


@pytest.mark.parametrize("name", sorted(GOLDEN_STABILIZATION))
def test_stabilization_report_is_golden(name):
    alg, cd = catalog_build("split-sl", int(name[2:]))
    report = verify_suite(alg, cd, "stabilization", seed=20240601,
                          samples=100)
    assert _digest(report.body_dict()) == GOLDEN_STABILIZATION[name]


@pytest.mark.parametrize("key", sorted(GOLDEN_CLI_VERIFY))
def test_cli_verify_stdout_is_golden(key):
    algebra, suite = key.split("/")
    result = CliRunner().invoke(main, ["verify", "-a", algebra, "--suite",
                                       suite])
    assert result.exit_code == 0, result.output
    assert result.output.count("wall_time_s") == 1
    stdout = re.sub(r'\n  "wall_time_s": [0-9.e-]+', "", result.output)
    assert hashlib.sha256(stdout.encode()).hexdigest() \
        == GOLDEN_CLI_VERIFY[key]
