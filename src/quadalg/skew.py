"""One-variable skew extensions of quadratic algebras and their Calabi-Yau
verdicts.

Extending by a letter z twisted by an automorphism s adds the mixed
relations z (x) s^{-1}(x_i) - x_i (x) z.  The cohomology algebra of the
extension is modeled by a trivial extension of the dual algebra by a
degree-shifted copy of itself; the model is verified against the honest
dual of the extension by an explicit degreewise isomorphism before any
verdict is read off.  The isomorphism is checked multiplicative on
degree-1 generators, which suffices since both algebras are associative
and the model is generated in degree 1.  Each degree of it is solved and
checked in one solve of the model products stacked over
their honest images, read off the structure tables' cells; the mixed
relation classes it is checked against come from one solve.

The extension is one object per certificate and twist (skew_extend), and
it keeps what is derived from the pair, each part computed on first read:
the model, the honest dual, the verified isomorphism report and the graded
symmetry verdict.  `skew`, `extiso`, `cy` and the deformed criterion of
pbw read that one object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .frobenius import (GradedFDAlgebra, is_graded_symmetric,
                        twisted_module_trivial_extension)
from .linalg import (ConsistencyError, LinAlgError, Matrix, ONE, Subspace,
                     _echelon_int, int_solve, solve_square)
from .quadratic import (QuadraticAlgebra, graded_dims, shared_presentation,
                        truncated_structure)
from .regular import RegularityCertificate
from .superpotential import derivation_quotient
from .tensors import preserves_subspace


def fresh_letter(names) -> str:
    for cand in "zwvuts":
        if cand not in names:
            return cand
    base = "z"
    while base in names:
        base += "'"
    return base


@dataclass(frozen=True, eq=False)
class IsoReport:
    """Outcome of matching the model against the honest dual of the extension."""

    generated_ok: bool
    bijective: bool
    left_identity_ok: bool
    right_identity_ok: bool

    @property
    def passed(self) -> bool:
        return (self.generated_ok and self.bijective
                and self.left_identity_ok and self.right_identity_ok)


@dataclass(frozen=True, eq=False)
class SkewExtension:
    """A certified algebra extended by one letter twisted by sigma.

    The new letter is the last of algebra.names.  stacked_relations holds
    the base's canonical relation rows embedded in the (n+1)^2 word
    coordinates of the extension, followed by the n mixed relations, each
    a sparse {word index: value} map; the extension's relation space is
    their span.  sigma_inverse is the inverse of the twist, computed once
    here for the mixed relations and read by the model and its check.
    model, honest_dual, iso and symmetry are computed on first read and
    kept here, on the one extension per certificate and twist.
    """

    cert: RegularityCertificate
    sigma: Matrix
    algebra: QuadraticAlgebra
    stacked_relations: tuple[dict[int, Fraction], ...]
    sigma_inverse: Matrix

    @cached_property
    def model(self) -> GradedFDAlgebra:
        """Model of the extension's cohomology algebra: the dual algebra
        extended by a shifted copy of itself, sign-twisted on the left and
        twisted by the transposed inverse of sigma on the right."""
        dual = self.cert.dual_fd
        psi = dual.automorphism(self.sigma_inverse.transpose())
        return twisted_module_trivial_extension(dual, dual.epsilon(1), psi)

    @cached_property
    def honest_dual(self) -> GradedFDAlgebra:
        """The dual of the extension, truncated one degree above the base's
        global dimension."""
        return truncated_structure(self.algebra.dual, self.cert.gldim + 1)

    @cached_property
    def iso(self) -> IsoReport:
        return verify_ext_algebra_isomorphism(self)

    @cached_property
    def symmetry(self) -> tuple[bool, tuple | None]:
        """(verdict, witness) of graded symmetry (frobenius.
        is_graded_symmetric), read on the model and cross-checked on the
        honest dual; the witness names the model's first failing pairing
        entry."""
        ok_model, witness = is_graded_symmetric(self.model)
        ok_honest, _ = is_graded_symmetric(self.honest_dual)
        if ok_model != ok_honest:
            raise ConsistencyError("symmetry verdict differs between the "
                                   "model and the honest dual")
        return ok_model, witness


# bounded at over twice the 7 (certificate, twist) pairs of one corpus sweep;
# keyed on the certificate itself, which regular.as_regular_certificate hands
# out, and on the twist by value
@lru_cache(maxsize=16)
def skew_extend(cert: RegularityCertificate, sigma: Matrix, /) -> SkewExtension:
    """Adjoin to the certified algebra one twisted letter, named by
    fresh_letter; dimension counts are verified up to degree 4 against the
    partial sums of the base dimensions.  Raises LinAlgError or
    ConsistencyError on a twist it refuses."""
    base = cert.algebra
    n = base.n
    if sigma.cols != n:
        raise LinAlgError("twist acts on the wrong space")
    pinv = solve_square(sigma, Matrix.identity(n))
    if pinv is None:
        raise LinAlgError("twist must be invertible")
    if not preserves_subspace(sigma, base.relations):
        raise LinAlgError("twist does not preserve the relations")
    names = base.names + (fresh_letter(base.names),)
    m = n + 1
    stacked = [{(c // n) * m + c % n: v for c, v in row}
               for row in base.relations.rows]
    # the i-th mixed relation z (x) sigma^{-1}(x_i) - x_i (x) z
    for i, col in enumerate(pinv.columns):
        mixed = {n * m + j: Fraction(v, pinv.den) for j, v in col}
        mixed[i * m + n] = -ONE
        stacked.append(mixed)
    relations = Subspace.from_spanning(stacked, m * m)
    if relations.dim != base.relations.dim + n:
        raise ConsistencyError("mixed relations are not independent of the base ones")
    algebra = shared_presentation(names, relations)
    dims_base = graded_dims(base, 4)
    for k, dim in enumerate(graded_dims(algebra, 4)):
        if dim != sum(dims_base[:k + 1]):
            raise ConsistencyError(
                f"extension dimension {dim} at degree {k} is not the "
                f"partial sum {sum(dims_base[:k + 1])} of the base dimensions")
    return SkewExtension(cert, sigma, algebra, tuple(stacked), pinv)


def verify_ext_algebra_isomorphism(ext: SkewExtension) -> IsoReport:
    """Build the degreewise isomorphism from the model onto the truncated
    dual of the extension and check that it is multiplicative.

    The map f sends dual generators to themselves and the shifted unit to
    the new dual letter.  In degree k it is solved from the products x s
    of degree-(k-1) basis elements x by degree-1 basis elements s, and
    generated_ok says that f(x s) = f(x) f(s) holds for all of them, which
    needs the model to be generated in degree 1 (the solve has no solution
    otherwise).  That is all of multiplicativity: both algebras were
    checked associative when built, f(1) = 1, and the c with f(x c) =
    f(x) f(c) for every x form a subspace that contains 1 and degree 1 and
    is closed under products, as f(x c c') = f(x c) f(c') = f(x) f(c) f(c')
    = f(x) f(c c').  So f preserves every structure constant exactly when
    generated_ok holds.

    Degree k is one `int_solve`.  Let P be the g x N matrix of the model
    products e_a e_b over the N pairs of a degree-(k-1) and a degree-1
    basis element (g = dims[k] of the model), and Q the e x N matrix of
    their honest images f(e_a) f(e_b) = f(e_a) e_b (f is the identity in
    degree 1), summed from the cells of the basis elements in f(e_a).  Pair
    j gives the row (P e_j, Q e_j), model coordinates as the unknowns and
    honest ones as the right-hand sides, so the system is P^T X = Q^T and
    X is the transpose of f_k.  The rows are reduced in pair order and
    span W = {(P x, Q x)}.
    - The pivots in the model block are those of W's projection to it,
      P's column space: rank P of them.
    - The rows with a pivot in the honest block span W meet 0 x Q^e =
      {(0, Q x) : P x = 0}, which is zero exactly when ker P lies in
      ker Q.
    generated_ok asks that P be onto and that some f_k have f_k P = Q.  For
    P onto, such an f_k exists, and is unique, exactly when ker P lies in
    ker Q.  So generated_ok holds if and only if the model block holds g
    pivots and the honest block none.

    A row kept with a model pivot has its lead in the model block all
    through its reduction, so it was reduced by earlier such rows only.
    The kept model-pivot rows therefore span the rows of the pairs that
    gave them, and those pairs are B, the earliest pairs with independent
    model products.  When P is onto, P_B is invertible and that span,
    {(P_B y, Q_B y)}, has the reduced echelon rows (e_t, Q_B P_B^{-1} e_t),
    which `int_solve` reads as solution t: column t of f_k = Q_B P_B^{-1}.
    This is the f_k = Q S of a right inverse S of P that is zero off B, the
    one that a reduction of [P | I] gives, and without honest pivots it is
    the unique f_k with f_k P = Q.  bijective asks that f_k be square of
    full rank.  When P is not onto, generated_ok and bijective fail and the
    zero map is carried on.

    Two product identities pin the mixed dual relations: the i-th
    generator times the new letter is minus the i-th mixed relation class,
    and the new letter times the i-th generator is the inverse-twist row
    combination of the mixed relation classes.  Both read the degree-(1, 1)
    cells of the honest dual, and compare them in integers with the
    classes as `int_class_from_pairings` returns them and with the integer
    columns of the transpose of sigma^{-1}.

    `extiso`, cy_check_with and pbw.cy_criterion_deformed read it as
    ext.iso, kept on the extension.
    """
    cert = ext.cert
    alg = cert.algebra
    n = alg.n
    gamma = ext.model
    ebd = ext.honest_dual
    if gamma.dims[1] != n + 1 or ebd.dims[1] != n + 1:
        raise ConsistencyError("degree-one dimensions do not match")
    generated_ok = True
    bijective = True
    # each stacked row is scaled to integers, which leaves the solution as
    # it is: by both tables' denominators and by the pivot entry that f(e_a)
    # is carried over, so the model cell comes times ebd.den times that
    # entry and the honest product times gamma.den, from the integer cells
    gden, eden = gamma.den, ebd.den
    # f_{k-1} as integer columns (pivot entry, {honest coordinate: int}),
    # the column over its pivot entry, one per model basis element, as
    # int_solve returns them; the identity in degree 1
    prev = [(1, {b: 1}) for b in range(n + 1)]
    for k in range(2, cert.gldim + 2):
        g, e = gamma.dims[k], ebd.dims[k]
        model = gamma.int_mult[(k - 1, 1)]
        honest = ebd.int_mult[(k - 1, 1)]
        rows = []
        for a, (pa, fa) in enumerate(prev):
            terms = [(t, gden * x) for t, x in fa.items()]
            scale = eden * pa
            for b in range(n + 1):
                row = {c: scale * w for c, w in model[a][b]}
                for t, x in terms:
                    for c, w in honest[t][b]:
                        row[g + c] = row.get(g + c, 0) + x * w
                rows.append({c: v for c, v in row.items() if v})
        sol, consistent = int_solve(rows, g)
        if len(sol) < g or not consistent:
            generated_ok = False
        # column t of f_k is solution t; the zero map unless P is onto
        prev = ([sol[t] for t in range(g)] if len(sol) == g
                else [(1, {}) for _ in range(g)])
        if g != e or len(_echelon_int(dict(col) for _, col in prev)) != e:
            bijective = False
    # mixed dual relation classes, paired against the original relation
    # rows: coordinate t of class i is classes[t][1][i] over classes[t][0]
    nrel = alg.relations.dim
    classes = ebd.int_class_from_pairings(
        2, ext.stacked_relations, Matrix.identity(nrel + n).num[nrel:])
    pinv = ext.sigma_inverse
    lp = pinv.den
    # row i of pinv, times lp: column i of its transpose
    prows = pinv.transpose().columns
    cells = ebd.int_mult[(1, 1)]

    def combines(pairs, combo, scale):
        """Whether the cells, the product times eden, are the combination
        sum_j c_j class_j over scale, for combo the (j, c_j); compared
        times scale and each coordinate's pivot entry."""
        cell = dict(pairs)
        return cell.keys() <= classes.keys() and all(
            cell.get(t, 0) * pv * scale
            == eden * sum(c * vals.get(j, 0) for j, c in combo)
            for t, (pv, vals) in classes.items())

    left_ok = all(combines(cells[i][n], [(i, -1)], 1) for i in range(n))
    right_ok = all(combines(cells[n][i], prows[i], lp) for i in range(n))
    return IsoReport(generated_ok, bijective, left_ok, right_ok)


@dataclass(frozen=True)
class CYReport:
    """Verdict on the skew extension being Calabi-Yau of the next dimension."""

    is_CY: bool
    dimension: int
    koszul_bound: int
    witness: tuple | None


def cy_check_with(cert: RegularityCertificate, sigma: Matrix) -> CYReport:
    """Whether extending by one letter twisted by sigma yields a Calabi-Yau
    algebra: the verified cohomology model must be graded symmetric.

    The verdict is the extension's symmetry, read on the model and
    cross-checked on the honest dual of the extension; the witness names
    the first failing pairing entry.
    """
    ext = skew_extend(cert, sigma)
    if not ext.iso.passed:
        raise ConsistencyError("cohomology model does not match the dual of "
                               "the extension")
    ok, witness = ext.symmetry
    return CYReport(ok, cert.gldim + 1, cert.bound, witness)


def verify_extended_presentation(cert: RegularityCertificate) -> bool:
    """The symmetrized superpotential must present the Nakayama-twisted
    extension: its derivation quotient equals the extended relation space."""
    ext = skew_extend(cert, cert.superpotential.twist)
    dq = derivation_quotient(cert.symmetrized, cert.gldim - 1,
                             ext.algebra.names)
    return dq.relations == ext.algebra.relations
