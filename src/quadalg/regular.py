"""Degree-bounded certification that a quadratic algebra is regular:
finite-dimensional Frobenius dual + Koszul numerics, and the Nakayama
automorphism extracted from the dual pairing.

The certificate is evidence up to the stated degree bound, not a proof.
Callers that already know the expected global dimension can ask for reduced
bounds through regularity_data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .frobenius import FrobeniusStructure, NotFrobenius, frobenius_structure
from .linalg import ConsistencyError, LinAlgError, Matrix, ZERO, solve_square
from .quadratic import (QuadraticAlgebra, TruncatedAlgebra, graded_dims,
                        numeric_koszul_certificate, truncated_structure)
from .tensors import preserves_subspace


class NotRegular(Exception):
    """Refutation: the bounded regularity checks failed at some degree."""

    def __init__(self, reason: str, witness_degree: int):
        super().__init__(f"degree {witness_degree}: {reason}")
        self.reason = reason
        self.witness_degree = witness_degree


@dataclass(frozen=True, eq=False)
class RegularityCertificate:
    """The data the bounded regularity checks produced that later steps read.

    dual_fd is the dual algebra truncated at its top degree gldim; dual_dims
    runs on to the bound.
    """

    algebra: QuadraticAlgebra
    gldim: int
    bound: int
    dual_dims: tuple[int, ...]
    dual_fd: TruncatedAlgebra
    frobenius: FrobeniusStructure


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


# bounded at over twice the 7 certificates whose Nakayama map one corpus
# sweep reads; keyed on the certificate itself, which as_regular_certificate
# hands out
@lru_cache(maxsize=16)
def nakayama_of_algebra(cert: RegularityCertificate, /) -> Matrix:
    """Nakayama automorphism of the algebra, from the dual pairing data.

    On generators this is the sign-adjusted inverse transpose of the dual
    Nakayama map nu_1 in degree one, in column convention:
    xi = (-1)^(d+1) (nu_1^{-1})^T.  With G_i = pairings[i], nu_1 is the X
    of G_{d-1} X = G_1^T (frobenius_structure), so nu_1 = G_{d-1}^{-1} G_1^T
    and nu_1^{-1} = G_1^{-T} G_{d-1}: the solution Y of G_1^T Y = G_{d-1}.
    So xi is (-1)^(d+1) Y^T, read off one solve and no inverse.  The result
    must preserve the relation subspace; if it does not, the certificate
    data is inconsistent.  Computed once per certificate.
    """
    d = cert.gldim
    pairings = cert.frobenius.pairings
    # G_1 is nondegenerate, as frobenius_structure checked
    y = solve_square(pairings[1].transpose(), pairings[d - 1])
    xi = y.transpose().scale(Fraction((-1) ** (d + 1)))
    if not preserves_subspace(xi, cert.algebra.relations, 2):
        raise ConsistencyError("extracted Nakayama map does not preserve the relations")
    return xi


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
    xi = y.transpose().scale(Fraction(-1))
    if xi != nakayama_of_algebra(cert):
        raise ConsistencyError("matrix-form Nakayama disagrees with the pairing route")
    return m, xi
