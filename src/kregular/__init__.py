"""Exact-arithmetic certificates for K-regularity and the K-unstable cone
of a complexified Cartan decomposition g = k + p.

Every verdict is exact over the Gaussian rationals: ranks are certified
by exact division-based elimination over Fraction (linalg.EchelonSpan;
its mod-p twin ModpSpan only proves the stabilization bound) with
explicit nonsingular-minor witnesses, and nullcone membership by the
vanishing of an exact Gram matrix of Lyndon-word evaluations together
with nilpotency of the adjoint actions.
"""

from .scalar import Scalar
from .linalg import MatrixQ, EchelonSpan, rank_of, rank_profile, nullspace_of
from .algebra import (
    CartanDecomposition,
    ElementZ,
    LieAlgebra,
    ValidationReport,
    bracket,
    ad_matrix,
    killing_pair,
    decompose,
    validate,
)
from .catalog import catalog_build, parse_algebra_name
from .words import (
    LyndonWord,
    WordEvaluator,
    is_lyndon,
    lyndon_basis,
    lyndon_words_of_degree,
    witt_dimension,
)
from .certify import (
    DegreeBounds,
    GramCertificate,
    SubalgebraReport,
    centralizer_in_k,
    degree_bounds,
    derived_series,
    generated_subalgebra,
    gram_matrix,
    is_k_regular,
    nilcone_test,
    power_trace,
    separation_probe,
)
from .roots import (
    RestrictedRoot,
    RestrictedRootDatum,
    build_regular,
    catalog_datum,
    choose_x0,
    choose_y,
    construct_regular,
    validate_datum,
    zeta_value,
)
from .verify import SUITES, VerifyReport, verify_suite
from .errors import (
    CatalogError,
    GramSizeError,
    InputError,
    KregularError,
    SchemaError,
    SoundnessError,
    ValidationFailure,
)

__version__ = "0.1.0"

__all__ = [
    "Scalar", "MatrixQ", "EchelonSpan", "rank_of", "rank_profile",
    "nullspace_of",
    "CartanDecomposition", "ElementZ", "LieAlgebra", "ValidationReport",
    "bracket", "ad_matrix", "killing_pair", "decompose", "validate",
    "catalog_build", "parse_algebra_name",
    "LyndonWord", "WordEvaluator", "is_lyndon",
    "lyndon_basis", "lyndon_words_of_degree", "witt_dimension",
    "DegreeBounds", "GramCertificate", "SubalgebraReport",
    "centralizer_in_k", "degree_bounds", "derived_series",
    "generated_subalgebra", "gram_matrix", "is_k_regular", "nilcone_test",
    "power_trace", "separation_probe",
    "RestrictedRoot", "RestrictedRootDatum", "build_regular", "catalog_datum",
    "choose_x0", "choose_y", "construct_regular", "validate_datum", "zeta_value",
    "SUITES", "VerifyReport", "verify_suite",
    "CatalogError", "GramSizeError", "InputError", "KregularError",
    "SchemaError", "SoundnessError", "ValidationFailure", "__version__",
]
