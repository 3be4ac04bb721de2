"""Degree-bounded certification that a quadratic algebra is regular:
finite-dimensional Frobenius dual + Koszul numerics.  What the
certificate fixes is read off it as cached properties: the Nakayama
automorphism xi, from the dual pairing data; the superpotential w with
its twist, from the top Koszul components; and what w gives, its
symmetrization by one letter, its derivation quotient D(w) and the check
that D(w) presents the algebra.  Each is computed once per certificate,
on first read, and every command reads that one object.

The certificate is evidence up to the stated degree bound, not a proof.
Callers that already know the expected global dimension can ask for reduced
bounds through regularity_data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

from .frobenius import FrobeniusStructure, NotFrobenius, frobenius_structure
from .linalg import ConsistencyError, LinAlgError, Matrix, ZERO, solve_square
from .quadratic import (QuadraticAlgebra, TruncatedAlgebra, graded_dims,
                        koszul_component, numeric_koszul_certificate,
                        truncated_structure)
from .superpotential import derivation_quotient, symmetrize
from .tensors import (contract_left, contract_right, is_twisted_superpotential,
                      preserves_subspace)


class NotRegular(Exception):
    """Refutation: the bounded regularity checks failed at some degree."""

    def __init__(self, reason: str, witness_degree: int):
        super().__init__(f"degree {witness_degree}: {reason}")
        self.reason = reason
        self.witness_degree = witness_degree


@dataclass(frozen=True)
class SuperpotentialData:
    """Canonical superpotential of a certified algebra and its twist.

    w spans the top Koszul component, as a read-only {word index: value}
    map of degree gldim.  twist is the Nakayama map, recovered from the
    matrices of the left and right contractions of w by each dual letter,
    in the basis of the next component down, and cross-checked against the
    pairing route.
    """

    w: Mapping[int, Fraction]
    twist: Matrix


@dataclass(frozen=True)
class PresentationReport:
    """Comparison of an algebra against its superpotential presentation."""

    matches_relations: bool
    coupling_invertible: bool

    @property
    def passed(self) -> bool:
        return self.matches_relations and self.coupling_invertible


@dataclass(frozen=True, eq=False)
class RegularityCertificate:
    """The data the bounded regularity checks produced that later steps read.

    dual_fd is the dual algebra truncated at its top degree gldim; dual_dims
    runs on to the bound.  nakayama, superpotential, symmetrized, quotient
    and presentation are computed on first read and kept on the
    certificate, so they go with it; a read that raises keeps nothing.
    """

    algebra: QuadraticAlgebra
    gldim: int
    bound: int
    dual_dims: tuple[int, ...]
    dual_fd: TruncatedAlgebra
    frobenius: FrobeniusStructure

    @cached_property
    def nakayama(self) -> Matrix:
        """Nakayama automorphism of the algebra, from the dual pairing data.

        On generators this is the sign-adjusted inverse transpose of the
        dual Nakayama map nu_1 in degree one, in column convention:
        xi = (-1)^(d+1) (nu_1^{-1})^T.  With G_i = pairings[i], nu_1 is the
        X of G_{d-1} X = G_1^T (frobenius_structure), so
        nu_1 = G_{d-1}^{-1} G_1^T and nu_1^{-1} = G_1^{-T} G_{d-1}: the
        solution Y of G_1^T Y = G_{d-1}.  So xi is (-1)^(d+1) Y^T, read off
        one solve and no inverse.  The result must preserve the relation
        subspace; if it does not, the certificate data is inconsistent.
        """
        d = self.gldim
        pairings = self.frobenius.pairings
        # G_1 is nondegenerate, as frobenius_structure checked
        y = solve_square(pairings[1].transpose(), pairings[d - 1])
        xi = y.transpose() if d % 2 else -y.transpose()
        if not preserves_subspace(xi, self.algebra.relations):
            raise ConsistencyError("extracted Nakayama map does not preserve the relations")
        return xi

    @cached_property
    def superpotential(self) -> SuperpotentialData:
        """The superpotential of the algebra and its twist, which must be
        the Nakayama map and leave w twisted-cyclic."""
        d = self.gldim
        alg = self.algebra
        n = alg.n
        top = koszul_component(alg, d)
        if top.dim != 1:
            raise ConsistencyError(f"top Koszul component has dimension {top.dim}, not 1")
        w = MappingProxyType(dict(top.rows[0]))
        sub = koszul_component(alg, d - 1)
        left_rows = []
        right_cols = []
        for i in range(n):
            lc = sub.coordinates(contract_left(w, i, d, n))
            if lc is None:
                raise ConsistencyError("left contraction leaves the Koszul component")
            left_rows.append(lc)
        for j in range(n):
            rc = sub.coordinates(contract_right(w, j, n))
            if rc is None:
                raise ConsistencyError("right contraction leaves the Koszul component")
            right_cols.append(rc)
        left = Matrix.from_rows(left_rows, sub.dim)
        right = Matrix.from_rows(zip(*right_cols), n)
        # R^T L^{-1} is the transpose of the Y with L^T Y = R
        y = solve_square(left.transpose(), right)
        if y is None:
            raise LinAlgError("left contraction matrix is singular")
        twist = y.transpose() if d % 2 else -y.transpose()
        if twist != self.nakayama:
            raise ConsistencyError("contraction twist disagrees with the pairing route")
        if not is_twisted_superpotential(w, d, twist):
            raise ConsistencyError("extracted tensor is not twisted-cyclic")
        return SuperpotentialData(w, twist)

    @cached_property
    def symmetrized(self) -> Mapping[int, Fraction]:
        """The superpotential raised by one letter (symmetrize), a read-only
        vector of words of length gldim + 1 over the letters and the new
        last one.  w is twisted-cyclic for its twist, as superpotential
        checked, so the result must be cyclic for the identity: tested here,
        once."""
        data = self.superpotential
        d = self.gldim
        what = symmetrize(data.w, d, data.twist)
        if not is_twisted_superpotential(what, d + 1,
                                         Matrix.identity(self.algebra.n + 1)):
            raise ConsistencyError("symmetrized tensor fails plain cyclicity")
        return MappingProxyType(what)

    @cached_property
    def quotient(self) -> QuadraticAlgebra:
        """The derivation quotient D(w) of the superpotential: its
        (gldim - 2)-fold left contractions as relations."""
        return derivation_quotient(self.superpotential.w, self.gldim - 2,
                                   self.algebra.names)

    @cached_property
    def presentation(self) -> PresentationReport:
        """verify_superpotential_presentation of this certificate."""
        return verify_superpotential_presentation(self)


# bounded at over twice the 9 certificates of one corpus sweep
@lru_cache(maxsize=32)
def as_regular_certificate(alg: QuadraticAlgebra, bound: int, /) -> RegularityCertificate:
    """Certify regularity up to the bound, or raise NotRegular with a witness."""
    dual = alg.dual
    dual_dims = graded_dims(dual, bound)
    if dual_dims[bound] != 0:
        raise NotRegular("dual algebra is still nonzero at the degree bound, "
                         "no finite length is visible", bound)
    d = max(k for k in range(bound + 1) if dual_dims[k] > 0)
    dual_fd = truncated_structure(dual, d)
    try:
        frob = frobenius_structure(dual_fd)
    except NotFrobenius as nf:
        raise NotRegular(f"dual algebra is not Frobenius: {nf.reason}",
                         nf.witness_degree) from nf
    kos = numeric_koszul_certificate(alg, bound)
    if not kos.passed:
        witness = min(kos.component_mismatches + kos.euler_failures)
        raise NotRegular("Koszul numerics fail", witness)
    return RegularityCertificate(alg, d, bound, dual_dims, dual_fd, frob)


def verify_superpotential_presentation(cert: RegularityCertificate) -> PresentationReport:
    """Check that the derivation quotient cert.quotient returns the
    original relations, and solve w as a relation-times-factor sum.

    The coupling matrix L satisfies w = sum L[a][b] r_a (x) c_b over the
    canonical relation basis r and the basis c of the Koszul component two
    degrees down; it must be invertible.  Commands read the report once per
    certificate, as cert.presentation.
    """
    alg = cert.algebra
    w = cert.superpotential.w
    matches = cert.quotient.relations == alg.relations
    lower = koszul_component(alg, cert.gldim - 2)
    prod = alg.relations.kron(lower)
    coords = prod.coordinates(w)
    if coords is None:
        raise ConsistencyError("superpotential is not a relation-times-factor sum")
    rows = [coords[a * lower.dim:(a + 1) * lower.dim]
            for a in range(alg.relations.dim)]
    coupling = Matrix.from_rows(rows, lower.dim)
    return PresentationReport(matches, coupling.rows == lower.dim
                              and coupling.rank() == lower.dim)


def regularity_data(alg: QuadraticAlgebra, expected_gldim: int,
                    koszul_bound: int) -> RegularityCertificate:
    """Certificate with bounds tightened around a known global dimension."""
    if koszul_bound < expected_gldim + 1:
        raise LinAlgError("bound too small to see the dual terminate")
    cert = as_regular_certificate(alg, koszul_bound)
    if cert.gldim != expected_gldim:
        raise ConsistencyError(f"certified dimension {cert.gldim} does not match "
                               f"the expected {expected_gldim}")
    return cert


def dim2_matrix_form(cert: RegularityCertificate) -> tuple[Matrix, Matrix]:
    """For a dimension-2 algebra with one relation: the coefficient matrix M
    of the canonical relation, and the Nakayama map recomputed from M.

    The relation is sum_{i,j} M[i][j] x_i (x) x_j; the Nakayama map is
    -M^T M^{-1}.  Cross-checked against the pairing route; a disagreement
    raises ConsistencyError.
    """
    if cert.gldim != 2:
        raise LinAlgError("matrix form requires dimension 2")
    if cert.algebra.relations.dim != 1:
        raise LinAlgError("matrix form requires a single relation")
    n = cert.algebra.n
    entries = [[ZERO] * n for _ in range(n)]
    for c, v in cert.algebra.relations.rows[0]:
        entries[c // n][c % n] = v
    m = Matrix.from_rows(entries, n)
    # X = M^T M^{-1} is the transpose of the Y with M^T Y = M
    y = solve_square(m.transpose(), m)
    if y is None:
        raise LinAlgError("relation coefficient matrix is singular")
    xi = -y.transpose()
    if xi != cert.nakayama:
        raise ConsistencyError("matrix-form Nakayama disagrees with the pairing route")
    return m, xi
