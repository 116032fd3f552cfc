"""Restricted-root data and the deterministic construction of K-regular
elements.

Every "choose so that a polynomial does not vanish" step is replaced by a
deterministic expanding-box search over integer coordinate vectors, so two
runs on the same datum produce identical output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .algebra import (
    CartanDecomposition,
    ElementZ,
    LieAlgebra,
    ValidationReport,
    bracket,
    centralizer,
)
from .catalog import matrix_index
from .errors import CatalogError, SoundnessError, ValidationFailure
from .linalg import (
    EchelonSpan,
    Vector,
    gaussian_rows,
    linear_combination,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_scale,
    zero_vector,
)
from .scalar import Scalar

# half-width of the largest box choose_y and choose_x0 search; a valid
# datum never exhausts it, so running out raises SoundnessError
MAX_HALF_WIDTH = 64


@dataclass(frozen=True)
class RestrictedRoot:
    """A restricted root: its values on the a-basis and its root space."""

    values: tuple  # Scalar per a-basis vector
    space: tuple  # basis vectors of g_nu, ambient coordinates

    @property
    def multiplicity(self) -> int:
        return len(self.space)

    def value_at(self, coeffs: Sequence[Scalar]) -> Scalar:
        return vec_dot(coeffs, self.values)


@dataclass(frozen=True)
class RestrictedRootDatum:
    a_basis: tuple
    hm_basis: tuple
    roots: tuple  # all restricted roots, both signs
    positive: tuple  # indices into roots

    @property
    def dim_a(self) -> int:
        return len(self.a_basis)

    @property
    def mult_high(self) -> tuple:
        """Positive root indices with root space of dimension >= 2."""
        return tuple(i for i in self.positive if self.roots[i].multiplicity > 1)


def catalog_datum(alg: LieAlgebra, cd: CartanDecomposition) -> RestrictedRootDatum:
    """Closed-form datum for the split sl(n) catalog: a = traceless
    diagonals, roots eps_i - eps_j with root space C*E_ij, m = 0."""
    if alg.family != "split-sl":
        raise CatalogError(
            "restricted-root data is built in only for catalog algebras; "
            "supply a datum file for user algebras")
    n = int(alg.name[2:])
    dim = alg.dim
    a_basis = tuple(alg.basis_vector(k) for k in range(n - 1))
    roots = []
    positive = []
    idx = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            values = []
            for k in range(1, n):
                # (eps_i - eps_j)(H_k) with H_k = E_kk - E_{k+1,k+1}
                v = (1 if i == k else 0) - (1 if i == k + 1 else 0) \
                    - (1 if j == k else 0) + (1 if j == k + 1 else 0)
                values.append(Scalar(v))
            space = (alg.basis_vector(matrix_index(n, i, j)),)
            roots.append(RestrictedRoot(tuple(values), space))
            if i < j:
                positive.append(idx)
            idx += 1
    return RestrictedRootDatum(
        a_basis=a_basis, hm_basis=(), roots=tuple(roots), positive=tuple(positive))


def validate_datum(alg: LieAlgebra, cd: CartanDecomposition,
                   datum: RestrictedRootDatum) -> ValidationReport:
    """Exact well-formedness report for a restricted-root datum."""
    rep = ValidationReport()
    n = alg.dim

    p_span = EchelonSpan(n)
    p_span.extend(cd.p_basis)
    ok = all(p_span.contains(h) for h in datum.a_basis)
    rep.record("a-inside-p", ok)

    bad = None
    for i, hi in enumerate(datum.a_basis):
        for j in range(i + 1, datum.dim_a):
            if not vec_is_zero(bracket(alg, hi, datum.a_basis[j])):
                bad = (i, j)
                break
        if bad:
            break
    rep.record("a-abelian", bad is None, str(bad) if bad else "")

    bad = None
    for ri, root in enumerate(datum.roots):
        for vi, v in enumerate(root.space):
            for ai, h in enumerate(datum.a_basis):
                lhs = bracket(alg, h, v)
                rhs = vec_scale(root.values[ai], v)
                if lhs != rhs:
                    bad = (ri, vi)
                    break
            if bad:
                break
        if bad:
            break
    rep.record("root-eigenvectors", bad is None,
               f"root {bad[0]}, vector {bad[1]}" if bad else "")

    bad = None
    for ri, root in enumerate(datum.roots):
        neg = [s for s in datum.roots
               if s.values == tuple(-v for v in root.values)]
        if len(neg) != 1:
            bad = (ri, "missing or duplicate opposite root")
            break
        neg_span = EchelonSpan(n)
        neg_span.extend(neg[0].space)
        img_span = EchelonSpan(n)
        img_span.extend(cd.theta.matvec(v) for v in root.space)
        if not img_span.equals(neg_span):
            bad = (ri, "theta image is not the opposite root space")
            break
    rep.record("theta-pairing", bad is None,
               f"root {bad[0]}: {bad[1]}" if bad else "")

    dim_m = len(centralizer(alg, cd.k_basis, datum.a_basis))
    total = sum(r.multiplicity for r in datum.roots) + dim_m + datum.dim_a
    rep.record("weight-space-completeness", total == n,
               f"sum {total} != dim g {n}" if total != n else "")

    bad = None
    k_span = EchelonSpan(n)
    k_span.extend(cd.k_basis)
    for i, h in enumerate(datum.hm_basis):
        if not k_span.contains(h):
            bad = f"hm[{i}] not in k"
            break
        if any(not vec_is_zero(bracket(alg, h, a)) for a in datum.a_basis):
            bad = f"hm[{i}] does not commute with a"
            break
    rep.record("hm-in-m", bad is None, bad or "")

    pos_set = set(datum.positive)
    in_range = {i for i in pos_set if 0 <= i < len(datum.roots)}
    ok = in_range == pos_set and 2 * len(pos_set) == len(datum.roots)
    rep.record("positive-set", ok)

    # mult_high would index roots out of range, so read the in-range ones
    ok = bool(datum.hm_basis) or all(datum.roots[i].multiplicity == 1
                                     for i in in_range)
    rep.record("mult-high-needs-hm", ok,
               "" if ok else "a root space of dimension >= 2 requires h_m != 0")

    return rep


def _box_candidates(dim: int, half_width: int):
    """Integer coordinate tuples in expanding boxes, deterministic order:
    per-coordinate candidates 0, 1, -1, 2, -2, ..., new shell only."""
    for b in range(1, half_width + 1):
        order = [0]
        for v in range(1, b + 1):
            order.extend((v, -v))
        for tup in itertools.product(order, repeat=dim):
            if max((abs(c) for c in tup), default=0) == b:
                yield tup


def zeta_value(datum: RestrictedRootDatum, coeffs: Sequence[Scalar]) -> Scalar:
    """Product of (nu - nu')(y) over ordered pairs of distinct roots.

    Since roots come in opposite pairs, 2*nu divides the product, so a
    nonzero value forces every nu(y) != 0 as well.
    """
    values = [r.value_at(coeffs) for r in datum.roots]
    prod = Scalar(1)
    for i, vi in enumerate(values):
        for j, vj in enumerate(values):
            if i != j:
                prod = prod * (vi - vj)
    return prod


def choose_y(datum: RestrictedRootDatum) -> Vector:
    """First integer combination of the a-basis with all root values
    pairwise distinct and nonzero.

    The search runs over the Gaussian integers: scaling every root value by
    one positive constant keeps zero and equality, so the first accepted
    candidate is the same as over Q(i).
    """
    if not datum.a_basis:
        raise ValueError("datum has an empty Cartan subspace")
    if not datum.roots:
        return datum.a_basis[0]
    # root values times the lcm of their denominators, over Z[i]
    table = gaussian_rows(r.values for r in datum.roots)[1]
    for tup in _box_candidates(datum.dim_a, MAX_HALF_WIDTH):
        seen = set()
        for row in table:
            re = im = 0
            for c, (vr, vi) in zip(tup, row):
                re += c * vr
                im += c * vi
            if not (re or im) or (re, im) in seen:
                break
            seen.add((re, im))
        else:
            return linear_combination([Scalar(c) for c in tup],
                                      datum.a_basis, len(datum.a_basis[0]))
    raise SoundnessError(
        "no valid y found; the search bound should never be reached for a "
        "valid datum")


def _krylov_is_cyclic(alg: LieAlgebra, x0: Sequence[Scalar],
                      root: RestrictedRoot, gen: Sequence[Scalar]) -> bool:
    span = EchelonSpan(alg.dim)
    v = tuple(gen)
    for _ in range(root.multiplicity):
        if not span.add(v):
            break
        v = bracket(alg, x0, v)
    return span.dim == root.multiplicity


def _cyclic_generator(alg: LieAlgebra, x0: Sequence[Scalar],
                      root: RestrictedRoot) -> Optional[Vector]:
    """Datum basis vectors first, then small integer combinations."""
    for v in root.space:
        if _krylov_is_cyclic(alg, x0, root, v):
            return tuple(v)
    for tup in _box_candidates(root.multiplicity, 8):
        v = linear_combination([Scalar(c) for c in tup], root.space, alg.dim)
        if vec_is_zero(v):
            continue
        if _krylov_is_cyclic(alg, x0, root, v):
            return v
    return None


def choose_x0(alg: LieAlgebra, datum: RestrictedRootDatum) -> Vector:
    """Element of h_m making every multiplicity->=2 root space a cyclic
    ad-module; the zero vector when no such root space exists."""
    ambient = alg.dim
    high = [datum.roots[i] for i in datum.mult_high]
    if not high:
        return zero_vector(ambient)
    if not datum.hm_basis:
        raise ValidationFailure("mult-high-needs-hm",
                                "cannot choose x0 with empty h_m")
    for tup in _box_candidates(len(datum.hm_basis), MAX_HALF_WIDTH):
        x0 = linear_combination([Scalar(c) for c in tup], datum.hm_basis,
                                ambient)
        if all(_cyclic_generator(alg, x0, r) is not None for r in high):
            return x0
    raise SoundnessError(
        "no valid x0 found; the search bound should never be reached for a "
        "valid datum")


def build_regular(alg: LieAlgebra, cd: CartanDecomposition,
                  datum: RestrictedRootDatum) -> ElementZ:
    """The deterministic element z = x + y of the construction, without
    its certificate: y from choose_y, x the theta-folded positive root
    vectors plus x0 from choose_x0."""
    y = choose_y(datum)
    x0 = choose_x0(alg, datum)
    x = x0
    for i in datum.positive:
        root = datum.roots[i]
        if root.multiplicity == 1:
            x_nu = root.space[0]
        else:
            x_nu = _cyclic_generator(alg, x0, root)
            if x_nu is None:
                raise SoundnessError("x0 was chosen to make this cyclic")
        x = vec_add(x, vec_add(x_nu, cd.theta.matvec(x_nu)))
    return ElementZ(z=vec_add(x, y), x=x, y=tuple(y))


def construct_regular(alg: LieAlgebra, cd: CartanDecomposition,
                      datum: RestrictedRootDatum) -> ElementZ:
    """Deterministic K-regular element z = x + y from the datum.

    The output of build_regular is certified on the spot and carries that
    certificate, with its g(z), as ElementZ.certificate; a failed
    certificate would be a soundness bug and raises SoundnessError.
    """
    from .certify import is_k_regular

    ez = build_regular(alg, cd, datum)
    cert = is_k_regular(alg, cd, ez.z)
    if cert.verdict != "k-regular":
        raise SoundnessError(
            "constructed element failed the regularity certificate; this "
            "contradicts the construction theorem and is a bug")
    return replace(ez, certificate=cert)
