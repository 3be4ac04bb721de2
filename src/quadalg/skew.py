"""One-variable skew extensions of quadratic algebras and their Calabi-Yau
verdicts.

Extending by a letter z twisted by an automorphism s adds the mixed
relations z (x) s^{-1}(x_i) - x_i (x) z, written with the base relations
as the canonical integer rows of the extension's relation space.  The
cohomology algebra of the extension is modeled by a trivial extension of
the dual algebra by a degree-shifted copy of itself; the model is verified
against the honest dual of the extension by an explicit degreewise
isomorphism before any verdict is read off.  The isomorphism is checked
multiplicative on degree-1 generators, which suffices since both algebras
are associative and the model is generated in degree 1, one solve per
degree; the mixed relation classes it is checked against are the basis
elements of the words x_i z.

The extension is one object per certificate and twist (skew_extend), and
it keeps what is derived from the pair, each part computed on first read:
the model, the honest dual, the verified isomorphism report and the graded
symmetry verdict.  `skew`, `extiso`, `cy` and the deformed criterion of
pbw read that one object.
"""

from functools import cached_property, lru_cache
from typing import NamedTuple

from .frobenius import (GradedFDAlgebra, is_graded_symmetric,
                        twisted_module_trivial_extension)
from .linalg import (ConsistencyError, LinAlgError, Matrix, Subspace,
                     _echelon_int, _strip, int_solve, solve_square)
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


class IsoReport(NamedTuple):
    """Outcome of matching the model against the honest dual of the extension."""

    generated_ok: bool
    bijective: bool
    left_identity_ok: bool
    right_identity_ok: bool

    @property
    def passed(self) -> bool:
        return (self.generated_ok and self.bijective
                and self.left_identity_ok and self.right_identity_ok)


class SkewExtension:
    """A certified algebra extended by one letter twisted by sigma.

    The new letter is the last of algebra.names; the mixed relation of
    letter x_i is the relation row that leads at x_i z (skew_extend).
    sigma_inverse is the inverse of the twist, computed once here for the
    mixed relations and read by the model and its check.  model,
    honest_dual, iso and symmetry are computed on first read and kept here,
    on the one extension per certificate and twist; symmetry is the
    Calabi-Yau verdict, read only once iso has passed.  Immutable, and equal
    and hashed by identity.
    """

    def __init__(self, cert: RegularityCertificate, sigma: Matrix,
                 algebra: QuadraticAlgebra, sigma_inverse: Matrix):
        self.__dict__.update(cert=cert, sigma=sigma, algebra=algebra,
                             sigma_inverse=sigma_inverse)

    def __setattr__(self, name, value):
        raise AttributeError("a SkewExtension is immutable")

    @cached_property
    def model(self) -> GradedFDAlgebra:
        """Model of the extension's cohomology algebra: the dual algebra
        extended by a shifted copy of itself, sign-twisted on the left and
        twisted by the transposed inverse of sigma on the right."""
        dual = self.cert.dual_fd
        psi = dual.automorphism(self.sigma_inverse.transpose())
        return twisted_module_trivial_extension(dual, psi)

    @cached_property
    def honest_dual(self) -> GradedFDAlgebra:
        """The dual of the extension, truncated one degree above the base's
        global dimension."""
        return truncated_structure(self.algebra.dual, self.cert.gldim + 1)

    @cached_property
    def iso(self) -> IsoReport:
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

        Two product identities pin the mixed dual relations, read off the
        degree-(1, 1) cells in integers.  A pivot word w of the extension's
        relation rows has the honest dual's basis element e(w) as its class,
        and the row that leads at x_i z is
        -p (z (x) sigma^{-1}(x_i) - x_i (x) z), p its pivot entry, so the
        class dual to that relation is -e(x_i z).  So x_i* z* must be
        e(x_i z), and z* x_i* times the denominator of sigma^{-1} minus the
        e(x_k z) combined by row i of its numerators; both hold by
        construction for the sigma_inverse skew_extend wrote them with.

        `extiso`, symmetry and pbw.PBWDeformation.cy_report read this one
        report, kept on the extension.
        """
        cert = self.cert
        n = cert.algebra.n
        gamma = self.model
        ebd = self.honest_dual
        if gamma.dims[1] != n + 1 or ebd.dims[1] != n + 1:
            raise ConsistencyError("degree-one dimensions do not match")
        generated_ok = True
        bijective = True
        # each stacked row is scaled to integers, which leaves the solution
        # as it is: by both tables' denominators and by the pivot entry that
        # f(e_a) is carried over, so the model cell comes times ebd.den times
        # that entry and the honest product times gamma.den, from the
        # integer cells
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
        # the (1, 1) cells are the products times eden, their terms in basis
        # order, as are the e(x_k z) in k, each None if x_k z is no basis word
        basis = {w: t for t, w in enumerate(ebd.words[2])}
        mixed = [basis.get(k * (n + 1) + n) for k in range(n)]
        cells = ebd.int_mult[(1, 1)]
        pinv = self.sigma_inverse
        left_ok = all(cells[i][n] == ((mixed[i], eden),) for i in range(n))
        right_ok = all(
            tuple((t, v * pinv.den) for t, v in cells[n][i])
            == tuple((mixed[k], -v * eden) for k, v in enumerate(row) if v)
            for i, row in enumerate(pinv.num))
        return IsoReport(generated_ok, bijective, left_ok, right_ok)

    @cached_property
    def symmetry(self) -> tuple[bool, tuple | None]:
        """(is_CY, witness): whether the extension is Calabi-Yau of the next
        dimension, that is, whether its verified cohomology model is graded
        symmetric (frobenius.is_graded_symmetric).  Raises ConsistencyError,
        and keeps nothing, unless iso has passed; the verdict is read on the
        model and cross-checked on the honest dual, and the witness names
        the model's first failing pairing entry."""
        if not self.iso.passed:
            raise ConsistencyError("cohomology model does not match the dual "
                                   "of the extension")
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
    ConsistencyError on a twist it refuses.

    The relation rows of A[z; sigma] are written in the canonical form that
    Subspace.from_spanning would give, with no elimination: the base's
    integer rows, re-indexed from n letters to m = n + 1 in the order of
    words, and for each letter x_i the mixed relation z (x) sigma^{-1}(x_i)
    - x_i (x) z times -D, D x_i z - sum_j sigma^{-1}.num[j][i] z x_j (D the
    denominator of sigma^{-1}), over the gcd of its entries.  A base row
    leads at its pivot x_a x_b and a mixed row at x_i z, as i m + n < n m,
    the least index of a z x_j; each is content-free, positive there, and
    the only row nonzero there, as base rows hold no z and mixed row i no
    z-free word and no x_k z, k != i.  So the rows are the reduced echelon
    basis, dim R_A + n of them.
    """
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
    rows = [tuple([((c // n) * m + c % n, v) for c, v in row])
            for row in base.relations.int_rows]
    rows += [tuple(_strip({i * m + n: pinv.den,
                           **{n * m + j: -v for j, v in col}}).items())
             for i, col in enumerate(pinv.columns)]
    # each row starts at its pivot: sorted rows are in pivot order
    rows.sort()
    algebra = shared_presentation(names, Subspace(
        m * m, tuple(row[0][0] for row in rows), tuple(rows)))
    dims_base = graded_dims(base, 4)
    for k, dim in enumerate(graded_dims(algebra, 4)):
        if dim != sum(dims_base[:k + 1]):
            raise ConsistencyError(
                f"extension dimension {dim} at degree {k} is not the "
                f"partial sum {sum(dims_base[:k + 1])} of the base dimensions")
    return SkewExtension(cert, sigma, algebra, pinv)


def verify_extended_presentation(cert: RegularityCertificate) -> bool:
    """The symmetrized superpotential must present the Nakayama-twisted
    extension: its derivation quotient equals the extended relation space."""
    ext = skew_extend(cert, cert.nakayama)
    dq = derivation_quotient(cert.symmetrized, cert.gldim - 1,
                             ext.algebra.names)
    return dq.relations == ext.algebra.relations
