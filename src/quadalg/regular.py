"""Degree-bounded certification that a quadratic algebra is regular:
finite-dimensional Frobenius dual + Koszul numerics, as a Koszul algebra is
AS-regular exactly when its dual is Frobenius (S. P. Smith, "Some
finite-dimensional algebras related to elliptic curves", 1996, Prop.
5.10).  The certificate is the two halves, the KoszulCertificate it
checked and the Frobenius dual.  The dual's dimensions are counted once,
for the termination check, and handed to the Koszul numerics, whose
record keeps them with the algebra's and the components'.  The certificate
reads the dual's pairings (frobenius.GradedFDAlgebra.pairings), which
check each pairing nondegenerate by one rank, and solves no Nakayama
block of it: the blocks are the dual's own (.nakayama), solved where they
are read.  What the certificate fixes is read off it as cached
properties: the Nakayama automorphism xi, from the dual pairing data in
one solve; the superpotential w, from the top Koszul components, checked
xi-twisted with xi recovered from its contractions; and what w gives,
its symmetrization by one letter, its derivation quotient D(w) and the
check that D(w) presents the algebra.  Each is computed once per
certificate, on first read, and every command reads that one object.

The superpotential path runs on integer word vectors: w is the top
Koszul component's integer row, its contractions are read straight into
integer matrices, and the cyclicity tests, the symmetrization, D(w) and
the coupling rank do no Fraction arithmetic.  The Fractions built are
the two views that commands print, superpotential and symmetrized.

The certificate is evidence up to the stated degree bound, not a proof.
Callers that already know the expected global dimension can ask for reduced
bounds through regularity_data.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .frobenius import NotFrobenius
from .linalg import ConsistencyError, LinAlgError, Matrix, solve_square
from .quadratic import (KoszulCertificate, QuadraticAlgebra, TruncatedAlgebra,
                        graded_dims, koszul_component, koszul_numerics,
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


class PresentationReport(NamedTuple):
    """Comparison of an algebra against its superpotential presentation."""

    matches_relations: bool
    coupling_invertible: bool

    @property
    def passed(self) -> bool:
        return self.matches_relations and self.coupling_invertible


class RegularityCertificate:
    """The data the bounded regularity checks produced that later steps read.

    koszul is the passed KoszulCertificate at the bound, which keeps the
    bound and three dimension sequences up to it: three tuples of bound + 1
    ints, no more (as_regular_certificate keeps at most 32 certificates,
    and the CLI caps the bound at cli.MAX_DEGREE).  dual_fd is the dual
    algebra truncated at its top degree gldim, its pairings read and so
    checked nondegenerate; its Nakayama blocks are solved only if read.
    nakayama, superpotential, symmetrized, quotient and presentation are
    computed on first read and kept on the certificate, so they go with
    it; a read that raises keeps nothing.  Immutable, and equal and hashed
    by identity.
    """

    def __init__(self, algebra: QuadraticAlgebra, koszul: KoszulCertificate,
                 dual_fd: TruncatedAlgebra):
        self.__dict__.update(algebra=algebra, koszul=koszul, dual_fd=dual_fd)

    def __setattr__(self, name, value):
        raise AttributeError("a RegularityCertificate is immutable")

    @property
    def gldim(self) -> int:
        """The certified global dimension, the top degree of dual_fd."""
        return self.dual_fd.length

    @cached_property
    def nakayama(self) -> Matrix:
        """Nakayama automorphism of the algebra, from the dual pairing data.

        On generators this is the sign-adjusted inverse transpose of the
        dual Nakayama map nu_1 in degree one, in column convention:
        xi = (-1)^(d+1) (nu_1^{-1})^T.  With G_i = dual_fd.pairings[i], nu_1
        is the X of G_{d-1} X = G_1^T (dual_fd.nakayama[1]), so
        nu_1 = G_{d-1}^{-1} G_1^T and nu_1^{-1} = G_1^{-T} G_{d-1}: the
        solution Y of G_1^T Y = G_{d-1}.  So xi is (-1)^(d+1) Y^T, read off
        one solve and no inverse.  The result must preserve the relation
        subspace; if it does not, the certificate data is inconsistent.
        """
        d = self.gldim
        pairings = self.dual_fd.pairings
        # G_1 is nondegenerate, as its pairings are, once read
        y = solve_square(pairings[1].transpose(), pairings[d - 1])
        xi = y.transpose() if d % 2 else -y.transpose()
        if not preserves_subspace(xi, self.algebra.relations):
            raise ConsistencyError("extracted Nakayama map does not preserve the relations")
        return xi

    @cached_property
    def _integer_superpotential(self) -> dict[int, int]:
        """w as the top Koszul component's integer row, w times its pivot
        entry.  Its twist, recovered from its contractions, must be the
        Nakayama map and leave w twisted-cyclic.

        The left and right contractions of w by the dual letters must lie
        in K_{d-1}: all 2n are reduced in one forward pass against its
        integer rows.  Their coordinates in its reduced echelon basis are
        their values at its pivot words, integers read straight into the
        contraction matrices L (row i the left contraction by letter i)
        and R (column j the right one by letter j); w's scale multiplies
        both and leaves the twist R^T L^{-1} as it is.
        """
        d = self.gldim
        alg = self.algebra
        n = alg.n
        top = koszul_component(alg, d)
        if top.dim != 1:
            raise ConsistencyError(f"top Koszul component has dimension {top.dim}, not 1")
        w = dict(top.int_rows[0])
        sub = koszul_component(alg, d - 1)
        lefts = [contract_left(w, i, d, n) for i in range(n)]
        rights = [contract_right(w, j, n) for j in range(n)]
        if not sub.contains_all(lefts + rights):
            side = "right" if sub.contains_all(lefts) else "left"
            raise ConsistencyError(f"{side} contraction leaves the Koszul component")
        # L^T and R, row p the values at pivot word p
        left_t, right = (Matrix(tuple(tuple(c.get(p, 0) for c in side)
                                      for p in sub.pivots), 1, n)
                         for side in (lefts, rights))
        # R^T L^{-1} is the transpose of the Y with L^T Y = R
        y = solve_square(left_t, right)
        if y is None:
            raise LinAlgError("left contraction matrix is singular")
        twist = y.transpose() if d % 2 else -y.transpose()
        if twist != self.nakayama:
            raise ConsistencyError("contraction twist disagrees with the pairing route")
        if not is_twisted_superpotential(w, d, twist):
            raise ConsistencyError("extracted tensor is not twisted-cyclic")
        return w

    @cached_property
    def superpotential(self) -> Mapping[int, Fraction]:
        """The superpotential of the algebra, twisted by the Nakayama map,
        as a read-only {word index: value} map of degree gldim: the
        Fraction view of the integer row the checks ran on, the top Koszul
        component's reduced echelon row."""
        # the checks run on the integer row; a failure raises before w is kept
        self._integer_superpotential
        top = koszul_component(self.algebra, self.gldim)
        return MappingProxyType(dict(top.rows[0]))

    @cached_property
    def symmetrized(self) -> Mapping[int, Fraction]:
        """The superpotential raised by one letter (symmetrize), a read-only
        vector of words of length gldim + 1 over the letters and the new
        last one.  w is twisted-cyclic for the Nakayama map, as
        superpotential checked, so the result must be cyclic for the
        identity: tested here, once."""
        d = self.gldim
        what = symmetrize(self.superpotential, d, self.nakayama)
        if not is_twisted_superpotential(what, d + 1,
                                         Matrix.identity(self.algebra.n + 1)):
            raise ConsistencyError("symmetrized tensor fails plain cyclicity")
        return MappingProxyType(what)

    @cached_property
    def quotient(self) -> QuadraticAlgebra:
        """The derivation quotient D(w) of the superpotential: its
        (gldim - 2)-fold left contractions as relations."""
        return derivation_quotient(self._integer_superpotential,
                                   self.gldim - 2, self.algebra.names)

    @cached_property
    def presentation(self) -> PresentationReport:
        """Check that the derivation quotient D(w) (quotient) returns the
        original relations, and solve w as a relation-times-factor sum.

        The coupling matrix L satisfies w = sum L[a][b] r_a (x) c_b over
        the canonical relation basis r and the basis c of the Koszul
        component two degrees down; it must be invertible.  Commands read
        this one report per certificate.
        """
        alg = self.algebra
        w = self._integer_superpotential
        matches = self.quotient.relations == alg.relations
        lower = koszul_component(alg, self.gldim - 2)
        prod = alg.relations.kron(lower)
        if not prod.contains(w):
            raise ConsistencyError("superpotential is not a "
                                   "relation-times-factor sum")
        # the coordinates of w in the reduced echelon basis of
        # R (x) K_{d-2}, r_a (x) c_b at index a * dim + b, are its values at
        # the pivot words; w's scale leaves the rank as it is
        m = lower.dim
        pivots = prod.pivots
        coupling = Matrix(tuple(tuple(w.get(pivots[a * m + b], 0)
                                      for b in range(m))
                                for a in range(alg.relations.dim)), 1, m)
        return PresentationReport(matches, coupling.rows == m
                                  and coupling.rank() == m)


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
        dual_fd.pairings
    except NotFrobenius as nf:
        raise NotRegular(f"dual algebra is not Frobenius: {nf.reason}",
                         nf.witness_degree) from nf
    kos = koszul_numerics(alg, graded_dims(alg, bound), dual_dims)
    if not kos.passed:
        witness = min(kos.component_mismatches + kos.euler_failures)
        raise NotRegular("Koszul numerics fail", witness)
    return RegularityCertificate(alg, kos, dual_fd)


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


def dim2_matrix_form(cert: RegularityCertificate) -> Matrix:
    """For a dimension-2 algebra with one relation: the coefficient matrix M
    of the canonical relation.

    The relation is sum_{i,j} M[i][j] x_i (x) x_j; the Nakayama map
    recomputed from M is -M^T M^{-1}, and is cross-checked against the
    pairing route; a disagreement raises ConsistencyError.
    """
    if cert.gldim != 2:
        raise LinAlgError("matrix form requires dimension 2")
    if cert.algebra.relations.dim != 1:
        raise LinAlgError("matrix form requires a single relation")
    n = cert.algebra.n
    # the relation with leading coefficient 1: its row over the pivot entry
    (row,) = cert.algebra.relations.int_rows
    cells = dict(row)
    m = Matrix(tuple(tuple(cells.get(i * n + j, 0) for j in range(n))
                     for i in range(n)), row[0][1], n)
    # X = M^T M^{-1} is the transpose of the Y with M^T Y = M
    y = solve_square(m.transpose(), m)
    if y is None:
        raise LinAlgError("relation coefficient matrix is singular")
    if -y.transpose() != cert.nakayama:
        raise ConsistencyError("matrix-form Nakayama disagrees with the pairing route")
    return m
