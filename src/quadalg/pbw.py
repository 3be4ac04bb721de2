"""Filtered deformations of certified quadratic algebras.

A deformation replaces each relation r by r - nu(r) - theta(r) with nu
landing in degree one and theta a scalar; it is held on the relation rows
it was given, as (nu, theta) is a linear map on the relation space and any
basis of it carries the deformation.  Dually this equips the finite
dual algebra with a graded map of degree +1, one matrix per degree, and a
curvature element, a one-column matrix; the deformation is consistent
exactly when that data satisfies the curved Leibniz/square axioms, which
are checked on the algebra's generators.  The Calabi-Yau criterion for
the induced deformation of the Nakayama-twisted extension is evaluated on
two independent routes that must agree: in the Ext model of the extension,
kept on the one extension that skew.skew_extend hands out per certificate
and twist (SkewExtension.model) and checked there, and on the deformation
transported to the extension.  Everything past the input rows is integer
matrices (linalg.Matrix) and the algebras' integer cells; Fractions are
only the deformation's own nu and theta and a report's Fraction view.

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
from .linalg import (ConsistencyError, LinAlgError, Matrix, Subspace, Vec,
                     ZERO, solution_matrix, solve_square)
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
    degree-2 element, a one-column Matrix.
    """

    algebra: GradedFDAlgebra
    delta: tuple[Matrix, ...]
    curvature: Matrix


def dual_cdga(defm: PBWDeformation) -> Cdga:
    """The curved structure induced on the dual by a deformation.

    The differential pairs with nu on degree one (the image class of the
    i-th dual letter pairs to nu(r)'s coefficient of that letter on each
    relation row r) and extends by the signed Leibniz rule along each letter
    of a basis word; the curvature class pairs with theta.  A class is fixed
    by its pairings against any basis of the relation space, so the n
    degree-one classes and the curvature class come from one
    int_class_from_pairings on the deformation's own rows.  Above degree
    one, column w is the class (int_class) of the integer word vector
    that replaces each letter of w in turn by its image class.
    """
    cert = defm.cert
    d = cert.gldim
    trunc = cert.dual_fd
    n = cert.algebra.n
    # column i < n is the image class of the i-th dual letter, column n
    # the curvature class
    classes = solution_matrix(trunc.int_class_from_pairings(
        2, defm.rows, [[row.get(i, ZERO) for row in defm.nu] for i in range(n)]
        + [defm.theta]), trunc.dims[2], n + 1)
    delta1 = Matrix(tuple(row[:n] for row in classes.num), classes.den, n)
    curvature = Matrix(tuple(row[n:] for row in classes.num), classes.den, 1)
    delta = [Matrix.from_rows([(0,)] * trunc.dims[1], 1), delta1]
    # each letter's image class as a degree-two word vector, times delta1.den
    reps2 = [{trunc.words[2][t]: v for t, v in col} for col in delta1.columns]
    for j in range(2, d):
        cols = []
        for widx in trunc.words[j]:
            acc: dict[int, int] = {}
            # the letter in slot t of the word splits it as (prefix, letter,
            # suffix), and the letter's degree-two class takes its place
            for t in range(j):
                stride = n ** (j - 1 - t)
                prefix, rest = divmod(widx, n * stride)
                letter, suffix = divmod(rest, stride)
                base = prefix * n * n * stride + suffix
                for c2, v in reps2[letter].items():
                    add_into(acc, base + c2 * stride, -v if t % 2 else v)
            cols.append(trunc.int_class(j + 1, acc))
        delta.append(Matrix(tuple(cols), delta1.den * trunc.den,
                            trunc.dims[j + 1]).transpose())
    delta.append(Matrix.from_rows((), trunc.dims[d]))
    return Cdga(trunc, tuple(delta), curvature)


def _times(alg: GradedFDAlgebra, i: int, v: Matrix, j: int) -> Matrix:
    """Right multiplication by v, a degree-j element given as a column,
    from degree i to degree i + j: column a is e_a v, summed from the
    integer cells over alg.den * v.den; no rows past the top degree."""
    rows = [[0] * alg.dims[i] for _ in range(alg.dim(i + j))]
    if rows:
        (col,) = v.columns
        for a, cells in enumerate(alg.int_mult[(i, j)]):
            for t, x in col:
                for c, w in cells[t]:
                    rows[c][a] += x * w
    return Matrix(tuple(map(tuple, rows)), alg.den * v.den, alg.dims[i])


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
    """The curved axioms (Braverman-Gaitsgory, J. Algebra 181, 1996) on
    the generating set S of the algebra (GradedFDAlgebra.generators), read
    off the integer cells through `Matrix @`: delta(1) = 0, listed as the
    pair (0, 0, 0, 0) of the unit with itself when it fails; Leibniz,
    delta(x s) = delta(x) s + (-1)^|x| x delta(s), for every basis element
    x and s in S, listed as (|x|, |s|, x, s); the square, delta^2(s) =
    c s - s c, for s in S, listed as (|s|, s); and delta(c) = 0.

    That is all of both identities.  The y for which Leibniz holds against
    every x form a subspace that contains 1 and is closed under products,
    as delta(x y y') = delta(x y) y' + (-1)^(|x|+|y|) x y delta(y') =
    delta(x) y y' + (-1)^|x| x delta(y y') in an associative algebra; it
    contains S, so it is the algebra.  When Leibniz holds, delta^2 and
    [c, -] are both derivations, so they agree wherever they agree on S.
    Degrees past the top are zero, and identities there hold.
    """
    alg = c.algebra
    delta = c.delta
    curv = c.curvature
    length = alg.length
    leibniz = [(0, 0, 0, 0)] if any(map(any, delta[0].num)) else []
    squares = []
    for j in range(1, length):
        for s in alg.generators[j]:
            e_s = _padded(Matrix.identity(1), s, alg.dims[j] - s - 1)
            d_s = delta[j] @ e_s
            for i in range(length - j):
                # delta(x s) - delta(x) s - (-1)^i x delta(s), x of degree i
                second = _times(alg, i, d_s, j + 1)
                diff = (delta[i + j] @ _times(alg, i, e_s, j)
                        - _times(alg, i + 1, e_s, j) @ delta[i]
                        - (-second if i % 2 else second))
                leibniz += [(i, j, a, s) for a, col in enumerate(diff.columns)
                            if col]
            square = delta[j + 1] @ d_s - (_times(alg, 2, e_s, j) @ curv
                                           - _times(alg, j, curv, 2) @ e_s)
            if any(map(any, square.num)):
                squares.append((j, s))
    curv_closed = not any(map(any, (delta[2] @ curv).num))
    return CdgaAxiomReport(tuple(sorted(leibniz)), curv_closed,
                           tuple(squares))


def nakayama_shift(cert: RegularityCertificate, c: Cdga) -> Matrix:
    """The degree-one shift of the deformed Nakayama map, as a column, read
    off the curved structure c that a deformation of cert's algebra induces.

    Entry i is the top coefficient of the differential applied to the
    element omega_i that pairs to 1 against the i-th dual generator at the
    top, the i-th column of G_1^{-1} (G_1 = pairings[1]).  So the shift is
    the row delta_{d-1} G_1^{-1}, whose transpose s solves
    G_1^T s = delta_{d-1}^T: one solve, and no inverse.
    """
    # G_1 is nondegenerate, as frobenius_structure checked
    return solve_square(cert.frobenius.pairings[1].transpose(),
                        c.delta[cert.gldim - 1].transpose())


def skew_deformation(defm: PBWDeformation, ext: SkewExtension,
                     shift: Matrix) -> PBWDeformation:
    """Transport a deformation to ext, the extension of its certificate
    twisted by the Nakayama map of its algebra, given the deformation's
    Nakayama shift.

    On the base's relation rows, embedded in the extension's words, the
    maps are unchanged; each mixed relation is sent to its shift coefficient
    times the new letter, with no scalar part.
    """
    cert = defm.cert
    n = cert.algebra.n
    cert_ext = regularity_data(ext.algebra, cert.gldim + 1, cert.gldim + 2)
    rows = tuple({(c // n) * (n + 1) + c % n: v for c, v in row.items()}
                 for row in defm.rows) + ext.stacked_relations[len(defm.rows):]
    nu = tuple(defm.nu) + tuple({n: Fraction(lam, shift.den)} if lam else {}
                                for (lam,) in shift.num)
    theta = tuple(defm.theta) + (ZERO,) * n
    return PBWDeformation(cert_ext, rows, nu, theta, defm.effective_domain)


@dataclass(frozen=True)
class DeformedCYReport:
    """Verdict for the deformed Nakayama-twisted extension being Calabi-Yau."""

    is_CY: bool
    dimension: int
    shift: Matrix
    twisted_shift: Matrix
    converse_definitive: bool
    witness: str | None


def _padded(m: Matrix, above: int, below: int) -> Matrix:
    """m with zero rows added above and below it."""
    zero = (0,) * m.cols
    return Matrix((zero,) * above + m.num + (zero,) * below, m.den, m.cols)


def cy_criterion_deformed(defm: PBWDeformation, c: Cdga) -> DeformedCYReport:
    """Evaluate the deformed Calabi-Yau criterion on two independent routes,
    given the curved structure c = dual_cdga(defm).

    Route one extends the curved differential to the model of the
    extension's cohomology algebra, the dual E extended by its own copy
    shifted up one degree (SkewExtension.model with the Nakayama map xi),
    once the extension's iso report has checked that model against its
    honest dual (a failed check raises ConsistencyError, as in
    skew.cy_check_with), and checks that the differential vanishes on the
    degree equal to the base dimension d.  The new class pi is the shifted
    unit, its differential the module copy of the Nakayama shift in degree
    2, and omega_i, column i of G_1^{-1}, goes to d(omega_i) pi +
    (-1)^(d-1) omega_i d(pi) in the one-dimensional top.  Route two
    transports the deformation to the extension and checks its dual
    differential vanishes in that same degree.  Any disagreement
    (including with the closed-form shift comparison) raises
    ConsistencyError.
    """
    cert = defm.cert
    d = cert.gldim
    n = cert.algebra.n
    dims = cert.dual_fd.dims
    ext = skew_extend(cert, cert.nakayama)
    if not ext.iso.passed:
        raise ConsistencyError("cohomology model does not match the dual of "
                               "the extension")
    gamma = ext.model
    shift = nakayama_shift(cert, c)
    twisted = cert.nakayama.transpose() @ shift
    # omega_i is column i; in the model, degree k is E_k followed by the
    # copy of E_{k-1}
    omega = solve_square(cert.frobenius.pairings[1], Matrix.identity(n))
    u = _padded(omega, 0, dims[d - 2])
    pi = _padded(Matrix.identity(1), n, 0)
    delta_pi = _padded(shift, dims[2], 0)
    odd = d % 2 == 0  # (-1)^(d-1) = -1
    # the section: (omega_i, 0) pi is the copy of (-1)^(d-1) omega_i
    if (_times(gamma, d - 1, pi, 1) @ u
            != _padded(-omega if odd else omega, dims[d], 0)):
        raise ConsistencyError("canonical section identity fails in the model")
    t1 = _times(gamma, d, pi, 1) @ _padded(c.delta[d - 1] @ omega, 0, n)
    t2 = _times(gamma, d - 1, delta_pi, 2) @ u
    images = t1 - t2 if odd else t1 + t2
    witness = next((cert.algebra.names[i]
                    for i, col in enumerate(images.columns) if col), None)
    verdict_model = witness is None
    if verdict_model != (shift == twisted):
        raise ConsistencyError("model verdict disagrees with the shift comparison")
    ext_defm = skew_deformation(defm, ext, shift)
    c_ext = dual_cdga(ext_defm)
    verdict_direct = not any(map(any, c_ext.delta[d].num))
    if verdict_direct != verdict_model:
        raise ConsistencyError("model verdict disagrees with the transported "
                               "deformation's differential")
    return DeformedCYReport(verdict_model, d + 1, shift, twisted,
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
    fixed = chi[2] @ c.curvature == c.curvature
    return CompatibilityReport(commutes, fixed)


@dataclass(frozen=True)
class EquivalenceReport:
    """The three dimension-2 conditions, which must agree."""

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    shift: Matrix

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
    cond_iii = m.transpose() @ lam == -(m @ lam)
    report = EquivalenceReport(cond_i, cond_ii, cond_iii, lam)
    if not report.equivalent:
        raise ConsistencyError(f"three-way equivalence broken: {report}")
    return report
