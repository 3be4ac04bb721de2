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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .frobenius import (GradedFDAlgebra, is_graded_symmetric,
                        twisted_module_trivial_extension)
from .linalg import (ConsistencyError, LinAlgError, Matrix, ONE, Subspace, ZERO,
                     _echelon_int, _to_int_row, solve, solve_square,
                     unit_vector)
from .quadratic import QuadraticAlgebra, graded_dims, truncated_structure
from .regular import RegularityCertificate
from .superpotential import (derivation_quotient, extract_superpotential,
                             symmetrize)
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
class SkewExtension:
    """A quadratic algebra extended by one twisted letter.

    The new letter is the last of algebra.names.  stacked_relations holds
    the base's canonical relation rows embedded in the (n+1)^2 word
    coordinates of the extension, followed by the n mixed relations, each
    a sparse {word index: value} map; the extension's relation space is
    their span.  sigma_inverse is the inverse of the twist, computed once
    here for the mixed relations and read by the cohomology model and its
    check.
    """

    algebra: QuadraticAlgebra
    stacked_relations: tuple[dict[int, Fraction], ...]
    sigma_inverse: Matrix


# bounded at over twice the 7 extensions of one corpus sweep
@lru_cache(maxsize=16)
def skew_extend(base: QuadraticAlgebra, sigma: Matrix, /) -> SkewExtension:
    """Adjoin one twisted letter, named by fresh_letter; dimension counts
    are verified up to degree 4 against the partial sums of the base
    dimensions."""
    n = base.n
    if sigma.cols != n:
        raise LinAlgError("twist acts on the wrong space")
    pinv = solve_square(sigma, Matrix.identity(n))
    if pinv is None:
        raise LinAlgError("twist must be invertible")
    if not preserves_subspace(sigma, base.relations, 2):
        raise LinAlgError("twist does not preserve the relations")
    names = base.names + (fresh_letter(base.names),)
    m = n + 1
    stacked = [{(c // n) * m + c % n: v for c, v in row}
               for row in base.relations.rows]
    # the i-th mixed relation z (x) sigma^{-1}(x_i) - x_i (x) z
    for i in range(n):
        mixed = {n * m + j: v for j, v in enumerate(pinv.col(i)) if v}
        mixed[i * m + n] = -ONE
        stacked.append(mixed)
    relations = Subspace.from_spanning(stacked, m * m)
    if relations.dim != base.relations.dim + n:
        raise ConsistencyError("mixed relations are not independent of the base ones")
    algebra = QuadraticAlgebra(names, relations)
    dims_base = graded_dims(base, 4)
    for k, dim in enumerate(graded_dims(algebra, 4)):
        if dim != sum(dims_base[:k + 1]):
            raise ConsistencyError(
                f"extension dimension {dim} at degree {k} is not the "
                f"partial sum {sum(dims_base[:k + 1])} of the base dimensions")
    return SkewExtension(algebra, tuple(stacked), pinv)


def ext_algebra_of_skew(cert: RegularityCertificate,
                        sigma: Matrix) -> GradedFDAlgebra:
    """Model of the extension's cohomology algebra: the dual algebra extended
    by a shifted copy of itself, sign-twisted on the left and twisted by the
    transposed inverse of sigma on the right.  sigma^{-1} is read off the
    extension by sigma, so the twist is validated through skew_extend, which
    raises LinAlgError or ConsistencyError on a twist it refuses."""
    dual = cert.dual_fd
    pinv = skew_extend(cert.algebra, sigma).sigma_inverse
    psi = dual.automorphism(pinv.transpose())
    return twisted_module_trivial_extension(dual, dual.epsilon(1), psi)


@dataclass(frozen=True, eq=False)
class IsoReport:
    """Outcome of matching the model against the honest dual of the extension."""

    gamma: GradedFDAlgebra
    ext_dual_fd: GradedFDAlgebra
    generated_ok: bool
    bijective: bool
    left_identity_ok: bool
    right_identity_ok: bool

    @property
    def passed(self) -> bool:
        return (self.generated_ok and self.bijective
                and self.left_identity_ok and self.right_identity_ok)


# bounded at over twice the 7 (certificate, twist) pairs of one corpus sweep;
# keyed on the certificate itself, which regular.as_regular_certificate hands
# out, and on the twist by value
@lru_cache(maxsize=16)
def verify_ext_algebra_isomorphism(cert: RegularityCertificate,
                                   sigma: Matrix, /) -> IsoReport:
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

    Degree k is one `solve`.  Let P be the g x N matrix of the model
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
    which `solve` reads as solution t: column t of f_k = Q_B P_B^{-1}.
    This is the f_k = Q S of a right inverse S of P that is zero off B, the
    one that a reduction of [P | I] gives, and without honest pivots it is
    the unique f_k with f_k P = Q.  bijective asks that f_k be square of
    full rank.  When P is not onto, generated_ok and bijective fail and the
    zero map is carried on.

    Two product identities pin the mixed dual relations: the i-th
    generator times the new letter is minus the i-th mixed relation class,
    and the new letter times the i-th generator is the inverse-twist row
    combination of the mixed relation classes.  Both read the degree-(1, 1)
    cells of the honest dual.

    Computed once per certificate and twist: `extiso` and cy_check_with
    read the same report.
    """
    alg = cert.algebra
    n = alg.n
    ext = skew_extend(alg, sigma)
    gamma = ext_algebra_of_skew(cert, sigma)
    ebd = truncated_structure(ext.algebra.dual, cert.gldim + 1)
    if gamma.dims[1] != n + 1 or ebd.dims[1] != n + 1:
        raise ConsistencyError("degree-one dimensions do not match")
    generated_ok = True
    bijective = True
    # each stacked row is scaled to integers, which leaves the solution as
    # it is: by both tables' denominators and by the lcm L of the
    # denominators in f(e_a), so the model cell comes times ebd.den * L and
    # the honest product times gamma.den * L, from the integer cells
    gden, eden = gamma.den, ebd.den
    # f_{k-1} as sparse columns {honest coordinate: value}, one per model
    # basis element; the identity in degree 1
    prev = [{b: ONE} for b in range(n + 1)]
    for k in range(2, cert.gldim + 2):
        g, e = gamma.dims[k], ebd.dims[k]
        model = gamma.int_mult[(k - 1, 1)]
        honest = ebd.int_mult[(k - 1, 1)]
        rows = []
        for a, fa in enumerate(prev):
            scale = lcm(*[x.denominator for x in fa.values()])
            terms = [(t, gden * x.numerator * (scale // x.denominator))
                     for t, x in fa.items()]
            for b in range(n + 1):
                row = {c: eden * scale * w for c, w in model[a][b]}
                for t, x in terms:
                    for c, w in honest[t][b]:
                        row[g + c] = row.get(g + c, 0) + x * w
                rows.append(row)
        sol, consistent = solve(rows, g)
        if len(sol) < g or not consistent:
            generated_ok = False
        # column t of f_k is solution t; the zero map unless P is onto
        prev = ([sol[t] for t in range(g)] if len(sol) == g
                else [{} for _ in range(g)])
        if g != e or len(_echelon_int(_to_int_row(col) for col in prev)) != e:
            bijective = False
    # mixed dual relation classes, paired against the original relation rows
    nrel = alg.relations.dim
    rt_classes = [{t: v for t, v in enumerate(cls) if v}
                  for cls in ebd.class_from_pairings(
                      2, ext.stacked_relations,
                      [unit_vector(nrel + n, nrel + i) for i in range(n)])]
    pinv = ext.sigma_inverse
    # the cells are the products times eden, and so are the expectations
    cells = ebd.int_mult[(1, 1)]
    left_ok = True
    right_ok = True
    for i in range(n):
        if dict(cells[i][n]) != {t: -eden * v
                                 for t, v in rt_classes[i].items()}:
            left_ok = False
        expect: dict[int, Fraction] = {}
        for j in range(n):
            c = pinv[i, j]
            if c:
                for t, v in rt_classes[j].items():
                    expect[t] = expect.get(t, ZERO) + c * v
        if dict(cells[n][i]) != {t: eden * v for t, v in expect.items() if v}:
            right_ok = False
    return IsoReport(gamma, ebd, generated_ok, bijective, left_ok, right_ok)


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

    The verdict is read on the model and cross-checked on the honest dual of
    the extension; the witness names the first failing pairing entry.
    """
    iso = verify_ext_algebra_isomorphism(cert, sigma)
    if not iso.passed:
        raise ConsistencyError("cohomology model does not match the dual of "
                               "the extension")
    ok_model, witness = is_graded_symmetric(iso.gamma)
    ok_honest, _ = is_graded_symmetric(iso.ext_dual_fd)
    if ok_model != ok_honest:
        raise ConsistencyError("symmetry verdict differs between the model and "
                               "the honest dual")
    return CYReport(ok_model, cert.gldim + 1, cert.bound, witness)


def verify_extended_presentation(cert: RegularityCertificate) -> bool:
    """The symmetrized superpotential must present the Nakayama-twisted
    extension: its derivation quotient equals the extended relation space."""
    data = extract_superpotential(cert)
    what = symmetrize(data.w, cert.gldim, data.twist)
    ext = skew_extend(cert.algebra, data.twist)
    dq = derivation_quotient(what, cert.gldim - 1, ext.algebra.names)
    return dq.relations == ext.algebra.relations
