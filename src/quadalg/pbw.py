"""Filtered deformations of certified quadratic algebras.

A deformation replaces each relation r by r - nu(r) - theta(r) with nu
landing in degree one and theta a scalar; it is held on the relation rows
it was given, as (nu, theta) is a linear map on the relation space and any
basis of it carries the deformation.  Dually this equips the finite
dual algebra with a graded map of degree +1, one matrix per degree, and a
curvature element; the deformation is consistent exactly when that data
satisfies the curved Leibniz/square axioms.  The Calabi-Yau criterion for
the induced deformation of the Nakayama-twisted extension is evaluated on
two independent routes that must agree: in the Ext model of the extension,
kept on the one extension that skew.skew_extend hands out per certificate
and twist (SkewExtension.model), and on the deformation transported to
the extension.

The curved structure of a deformation (dual_cdga) and its deformed
Calabi-Yau report (cy_criterion_deformed) are computed once per
deformation, on first read, and kept on it (PBWDeformation.cdga and
.cy_report): `pbw` and `thm5` read the same ones when they read the same
deformation, as io.description_deformation hands out one per document and
certificate.  Only the transported deformation builds a second curved
structure, its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .frobenius import GradedFDAlgebra
from .linalg import (ConsistencyError, LinAlgError, Matrix, ONE, Subspace, Vec,
                     ZERO, solve_square, unit_vector)
from .regular import RegularityCertificate, dim2_matrix_form, regularity_data
from .skew import SkewExtension, skew_extend
from .tensors import add_into


@dataclass(frozen=True, eq=False)
class PBWDeformation:
    """A deformation r -> r - nu(r) - theta(r) of a certified algebra, held
    on the relation rows it was given.

    rows are sparse {word index: value} maps and must be a basis of the
    relation space; nu[i] is the degree-one part of rows[i] as a sparse
    {letter: value} map and theta[i] its scalar part.  The domain flag is
    caller-supplied metadata about the deformed algebra; when left unset,
    dimension-2 bases are treated as domains.  cdga and cy_report are
    computed on first read and kept on the deformation; a read that raises
    keeps nothing.
    """

    cert: RegularityCertificate
    rows: tuple[dict[int, Fraction], ...]
    nu: tuple[dict[int, Fraction], ...]
    theta: Vec
    domain: bool | None = None

    def __post_init__(self):
        if self.cert.gldim < 2:
            raise LinAlgError("a deformation needs a base of dimension at least 2")
        rels = self.cert.algebra.relations
        if (len(self.rows) != rels.dim
                or Subspace.from_spanning(self.rows, rels.ambient) != rels):
            raise LinAlgError("the deformed rows must be a basis of the "
                              "relation space")
        n = self.cert.algebra.n
        if (len(self.nu) != rels.dim
                or any(not 0 <= t < n for row in self.nu for t in row)):
            raise LinAlgError("nu must map each relation row to degree one")
        if len(self.theta) != rels.dim:
            raise LinAlgError("theta must assign a scalar to each relation row")

    @property
    def effective_domain(self) -> bool:
        if self.domain is not None:
            return self.domain
        return self.cert.gldim == 2

    @cached_property
    def cdga(self) -> Cdga:
        """The curved structure the deformation induces on the dual
        (dual_cdga)."""
        return dual_cdga(self)

    @cached_property
    def cy_report(self) -> DeformedCYReport:
        """The deformed Calabi-Yau criterion on the curved structure cdga
        (cy_criterion_deformed)."""
        return cy_criterion_deformed(self, self.cdga)


@dataclass(eq=False)
class Cdga:
    """A curved differential structure on a graded algebra.

    delta[j] is the differential from degree j to degree j+1 as a Matrix
    in column convention, with no rows at the top degree; curvature is a
    degree-2 element.
    """

    algebra: GradedFDAlgebra
    delta: tuple[Matrix, ...]
    curvature: Vec


def dual_cdga(defm: PBWDeformation) -> Cdga:
    """The curved structure induced on the dual by a deformation.

    The differential pairs with nu on degree one (the image class of the
    i-th dual letter pairs to nu(r)'s coefficient of that letter on each
    relation row r) and extends by the signed Leibniz rule along each letter
    of a basis word; the curvature class pairs with theta.  A class is fixed
    by its pairings against any basis of the relation space, so the n
    degree-one classes and the curvature class come from one solve on the
    deformation's own rows.
    """
    cert = defm.cert
    d = cert.gldim
    trunc = cert.dual_fd
    n = cert.algebra.n
    *delta1, curvature = trunc.class_from_pairings(
        2, defm.rows, [[row.get(i, ZERO) for row in defm.nu] for i in range(n)]
        + [defm.theta])
    delta = [Matrix.from_rows([(0,)] * trunc.dims[1], 1),
             Matrix.from_rows(delta1, trunc.dims[2]).transpose()]
    reps2 = [trunc.lift_sparse(2, delta1[i]) for i in range(n)]
    for j in range(2, d):
        cols = []
        for widx in trunc.words[j]:
            acc: dict[int, Fraction] = {}
            # the letter in slot t of the word splits it as (prefix, letter,
            # suffix), and the letter's degree-two class takes its place
            for t in range(j):
                stride = n ** (j - 1 - t)
                prefix, rest = divmod(widx, n * stride)
                letter, suffix = divmod(rest, stride)
                base = prefix * n * n * stride + suffix
                sign = (-1) ** t
                for c2, v in reps2[letter].items():
                    add_into(acc, base + c2 * stride, sign * v)
            cols.append(trunc.reduce_sparse(j + 1, acc))
        delta.append(Matrix.from_rows(cols, trunc.dims[j + 1]).transpose())
    delta.append(Matrix.from_rows((), trunc.dims[d]))
    return Cdga(trunc, tuple(delta), curvature)


@dataclass(frozen=True)
class CdgaAxiomReport:
    """Leibniz / closed-curvature / curved-square verdicts."""

    leibniz_failures: tuple
    curvature_closed: bool
    square_failures: tuple

    @property
    def passed(self) -> bool:
        return (not self.leibniz_failures and self.curvature_closed
                and not self.square_failures)


def check_cdga_axioms(c: Cdga) -> CdgaAxiomReport:
    alg = c.algebra
    length = alg.length
    # the image of each basis element, degree by degree
    images = [[m.mul_col(unit_vector(m.cols, a)) for a in range(m.cols)]
              for m in c.delta]
    leibniz = []
    for i in range(length + 1):
        for j in range(length - i):
            for a in range(alg.dims[i]):
                ua = unit_vector(alg.dims[i], a)
                da = images[i][a]
                for b in range(alg.dims[j]):
                    ub = unit_vector(alg.dims[j], b)
                    db = images[j][b]
                    lhs = c.delta[i + j].mul_col(alg.multiply(i, ua, j, ub))
                    first = alg.multiply(i + 1, da, j, ub)
                    second = alg.multiply(i, ua, j + 1, db)
                    sign = Fraction((-1) ** i)
                    rhs = tuple(x + sign * y for x, y in zip(first, second))
                    if lhs != rhs:
                        leibniz.append((i, j, a, b))
    curv_closed = not any(c.delta[2].mul_col(c.curvature))
    squares = []
    for j in range(length):
        square = c.delta[j + 1] @ c.delta[j]
        for a in range(alg.dims[j]):
            ua = unit_vector(alg.dims[j], a)
            lhs = square.mul_col(ua)
            left = alg.multiply(2, c.curvature, j, ua)
            right = alg.multiply(j, ua, 2, c.curvature)
            rhs = tuple(x - y for x, y in zip(left, right))
            if lhs != rhs:
                squares.append((j, a))
    return CdgaAxiomReport(tuple(leibniz), curv_closed, tuple(squares))


def nakayama_shift(cert: RegularityCertificate, c: Cdga) -> Vec:
    """The degree-one shift of the deformed Nakayama map, read off the
    curved structure c that a deformation of cert's algebra induces.

    Entry i is the top coefficient of the differential applied to the
    element omega_i that pairs to 1 against the i-th dual generator at the
    top, the i-th column of G_1^{-1} (G_1 = pairings[1]).  So the shift is
    the row delta_{d-1} G_1^{-1}, whose transpose s solves
    G_1^T s = delta_{d-1}^T: one solve, and no inverse.
    """
    # G_1 is nondegenerate, as frobenius_structure checked; s is the one
    # column of the solution
    return solve_square(cert.frobenius.pairings[1].transpose(),
                        c.delta[cert.gldim - 1].transpose()).mul_col((1,))


def skew_deformation(defm: PBWDeformation, ext: SkewExtension,
                     shift: Vec) -> PBWDeformation:
    """Transport a deformation to ext, the extension of its certificate
    twisted by the Nakayama map of its algebra, given the deformation's
    Nakayama shift.

    On the base's relation rows, embedded in the extension's words, the
    maps are unchanged; each mixed relation is sent to its shift coefficient
    times the new letter, with no scalar part.
    """
    cert = defm.cert
    n = cert.algebra.n
    m = n + 1
    cert_ext = regularity_data(ext.algebra, cert.gldim + 1, cert.gldim + 2)
    rows = tuple({(c // n) * m + c % n: v for c, v in row.items()}
                 for row in defm.rows) + ext.stacked_relations[len(defm.rows):]
    nu = tuple(defm.nu) + tuple({n: lam} if lam else {} for lam in shift)
    theta = tuple(defm.theta) + (ZERO,) * n
    return PBWDeformation(cert_ext, rows, nu, theta, defm.effective_domain)


@dataclass(frozen=True)
class DeformedCYReport:
    """Verdict for the deformed Nakayama-twisted extension being Calabi-Yau."""

    is_CY: bool
    dimension: int
    shift: Vec
    twisted_shift: Vec
    converse_definitive: bool
    witness: str | None


def cy_criterion_deformed(defm: PBWDeformation, c: Cdga) -> DeformedCYReport:
    """Evaluate the deformed Calabi-Yau criterion on two independent routes,
    given the curved structure c = dual_cdga(defm).

    Route one extends the curved differential to the model of the
    extension's cohomology algebra, the dual E extended by its own copy
    shifted up one degree (SkewExtension.model with the Nakayama map
    xi), and checks that it vanishes on the whole degree equal to the base
    dimension d, using genuine products there.  The model is the one the
    extension keeps, which its iso report checks against the honest dual
    of the extension, but that check runs only when `extiso` or `cy` runs:
    a lone `pbw` run reads the model unchecked.
    The new class pi is the shifted unit, its differential is the module
    copy of the Nakayama shift in degree 2, and a class omega_i of degree
    d-1 with top pairing 1 against the i-th generator goes to
    d(omega_i) pi + (-1)^(d-1) omega_i d(pi) in the one-dimensional top.
    Route two transports the deformation to the extension and checks its
    dual differential vanishes in that same degree.  Any disagreement
    (including with the closed-form shift comparison) raises
    ConsistencyError.
    """
    cert = defm.cert
    d = cert.gldim
    n = cert.algebra.n
    alg_fd = cert.dual_fd
    xi = cert.nakayama
    shift = nakayama_shift(cert, c)
    twisted = xi.transpose().mul_col(shift)
    ext = skew_extend(cert, xi)
    gamma = ext.model
    # the columns of G_1^{-1}
    omega_cols = solve_square(cert.frobenius.pairings[1], Matrix.identity(n))
    sign = Fraction((-1) ** (d - 1))
    pi = (ZERO,) * n + (ONE,)
    delta_pi = (ZERO,) * alg_fd.dim(2) + tuple(shift)
    images = []
    for i in range(n):
        omega = omega_cols.mul_col(unit_vector(n, i))
        u = tuple(omega) + (ZERO,) * alg_fd.dim(d - 2)
        # the section: (omega_i, 0) pi is the copy of (-1)^(d-1) omega_i
        if (gamma.multiply(d - 1, u, 1, pi)
                != (ZERO,) * alg_fd.dim(d) + tuple(sign * v for v in omega)):
            raise ConsistencyError("canonical section identity fails in the model")
        d_omega = tuple(c.delta[d - 1].mul_col(omega)) + (ZERO,) * n
        t1 = gamma.multiply(d, d_omega, 1, pi)
        t2 = gamma.multiply(d - 1, u, 2, delta_pi)
        images.append(tuple(x + sign * y for x, y in zip(t1, t2)))
    verdict_model = all(not any(img) for img in images)
    witness = None
    for i, img in enumerate(images):
        if any(img):
            witness = cert.algebra.names[i]
            break
    if verdict_model != (tuple(shift) == tuple(twisted)):
        raise ConsistencyError("model verdict disagrees with the shift comparison")
    ext_defm = skew_deformation(defm, ext, shift)
    c_ext = dual_cdga(ext_defm)
    verdict_direct = not any(map(any, c_ext.delta[d].num))
    if verdict_direct != verdict_model:
        raise ConsistencyError("model verdict disagrees with the transported "
                               "deformation's differential")
    return DeformedCYReport(verdict_model, d + 1, shift, tuple(twisted),
                            defm.effective_domain, witness)


@dataclass(frozen=True)
class CompatibilityReport:
    """Whether the sign-adjusted dual Nakayama map commutes with the curved data."""

    delta_commutes: bool
    curvature_fixed: bool

    @property
    def passed(self) -> bool:
        return self.delta_commutes and self.curvature_fixed


def nakayama_cdga_compatibility(cert: RegularityCertificate,
                                c: Cdga) -> CompatibilityReport:
    """Compare the sign-adjusted dual Nakayama map of cert with the curved
    structure c that a deformation of cert's algebra induces."""
    d = cert.gldim
    chi = tuple(-nak if (d + 1) * k % 2 else nak
                for k, nak in enumerate(cert.frobenius.nakayama))
    commutes = all(chi[j + 1] @ c.delta[j] == c.delta[j] @ chi[j]
                   for j in range(d))
    fixed = chi[2].mul_col(c.curvature) == tuple(c.curvature)
    return CompatibilityReport(commutes, fixed)


@dataclass(frozen=True)
class EquivalenceReport:
    """The three dimension-2 conditions, which must agree."""

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    shift: Vec

    @property
    def equivalent(self) -> bool:
        return self.cond_i == self.cond_ii == self.cond_iii


def cy_equivalence_dim2(defm: PBWDeformation) -> EquivalenceReport:
    """For dimension-2 bases: compatibility of the dual Nakayama map with the
    curved data, the deformed CY criterion, and the bilinear-form condition
    on the shift must all coincide; disagreement raises ConsistencyError.
    The curved data and the criterion are the deformation's own, defm.cdga
    and defm.cy_report, which `pbw` reads too."""
    cert = defm.cert
    if cert.gldim != 2:
        raise LinAlgError("the three-way equivalence is stated for dimension 2")
    cond_i = nakayama_cdga_compatibility(cert, defm.cdga).passed
    crit = defm.cy_report
    cond_ii = crit.is_CY
    m, _ = dim2_matrix_form(cert)
    lam = crit.shift
    lam_m = m.transpose().mul_col(lam)
    lam_mt = m.mul_col(lam)
    cond_iii = lam_m == tuple(-v for v in lam_mt)
    report = EquivalenceReport(cond_i, cond_ii, cond_iii, lam)
    if not report.equivalent:
        raise ConsistencyError(f"three-way equivalence broken: {report}")
    return report
