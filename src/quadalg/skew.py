"""One-variable skew extensions of quadratic algebras and their Calabi-Yau
verdicts.

Extending by a letter z twisted by an automorphism s adds the mixed
relations z (x) s^{-1}(x_i) - x_i (x) z.  The cohomology algebra of the
extension is modeled by a trivial extension of the dual algebra by a
degree-shifted copy of itself; the model is verified against the honest
dual of the extension by an explicit degreewise isomorphism before any
verdict is read off.  The isomorphism is checked multiplicative on
degree-1 generators, which suffices since both algebras are associative
and the model is generated in degree 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .frobenius import (GradedFDAlgebra, is_graded_symmetric,
                        twisted_module_trivial_extension)
from .linalg import (ConsistencyError, LinAlgError, Matrix, ONE, Subspace, ZERO,
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
    their span.
    """

    algebra: QuadraticAlgebra
    stacked_relations: tuple[dict[int, Fraction], ...]


@lru_cache(maxsize=None)
def _skew_extend(base: QuadraticAlgebra, sigma: Matrix) -> SkewExtension:
    n = base.n
    if sigma.cols != n:
        raise LinAlgError("twist acts on the wrong space")
    if not sigma.is_invertible():
        raise LinAlgError("twist must be invertible")
    if not preserves_subspace(sigma, base.relations, 2):
        raise LinAlgError("twist does not preserve the relations")
    names = base.names + (fresh_letter(base.names),)
    m = n + 1
    pinv = sigma.inverse()
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
    return SkewExtension(algebra, tuple(stacked))


def skew_extend(base: QuadraticAlgebra, sigma: Matrix) -> SkewExtension:
    """Adjoin one twisted letter, named by fresh_letter; dimension counts
    are verified up to degree 4 against the partial sums of the base
    dimensions."""
    return _skew_extend(base, sigma)


def ext_algebra_of_skew(cert: RegularityCertificate,
                        sigma: Matrix) -> GradedFDAlgebra:
    """Model of the extension's cohomology algebra: the dual algebra extended
    by a shifted copy of itself, sign-twisted on the left and twisted by the
    transposed inverse of sigma on the right."""
    dual = cert.dual_fd
    psi = dual.automorphism(sigma.inverse().transpose())
    return twisted_module_trivial_extension(dual, dual.epsilon(1), psi, -1)


@dataclass(eq=False)
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


def verify_ext_algebra_isomorphism(cert: RegularityCertificate,
                                   sigma: Matrix) -> IsoReport:
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
    generated_ok holds.  Two product identities pin the mixed
    dual relations: the i-th generator times the new letter is minus the
    i-th mixed relation class, and the new letter times the i-th generator
    is the inverse-twist row combination of the mixed relation classes.
    """
    alg = cert.algebra
    n = alg.n
    d = cert.gldim
    ext = skew_extend(alg, sigma)
    gamma = ext_algebra_of_skew(cert, sigma)
    ebd = truncated_structure(ext.algebra.dual, d + 1)
    length = d + 1
    generated_ok = True
    bijective = True
    maps = [Matrix.identity(1)]
    if gamma.dims[1] != n + 1 or ebd.dims[1] != n + 1:
        raise ConsistencyError("degree-one dimensions do not match")
    maps.append(Matrix.identity(n + 1))
    for k in range(2, length + 1):
        pcols = []
        qcols = []
        for a in range(gamma.dims[k - 1]):
            fa = maps[k - 1].col(a)
            for b in range(gamma.dims[1]):
                fb = maps[1].col(b)
                pcols.append(gamma.multiply_basis(k - 1, a, 1, b))
                qcols.append(ebd.multiply(k - 1, fa, 1, fb))
        pmat = Matrix.from_rows(zip(*pcols), len(pcols))
        qmat = Matrix.from_rows(zip(*qcols), len(qcols))
        smat = pmat.right_inverse()
        if smat is None:
            generated_ok = False
            maps.append(Matrix.zero(ebd.dims[k], gamma.dims[k]))
            continue
        fk = qmat @ smat
        if fk @ pmat != qmat:
            generated_ok = False
        if gamma.dims[k] != ebd.dims[k] or not fk.is_invertible():
            bijective = False
        maps.append(fk)
    # mixed dual relation classes, paired against the original relation rows
    nrel = alg.relations.dim
    rt_classes = [ebd.class_from_pairings(
        2, ext.stacked_relations, unit_vector(nrel + n, nrel + i))
        for i in range(n)]
    pinv = sigma.inverse()
    left_ok = True
    right_ok = True
    dim2 = ebd.dims[2]
    for i in range(n):
        xi_zs = ebd.multiply(1, unit_vector(n + 1, i), 1, unit_vector(n + 1, n))
        if xi_zs != tuple(-v for v in rt_classes[i]):
            left_ok = False
        zs_xi = ebd.multiply(1, unit_vector(n + 1, n), 1, unit_vector(n + 1, i))
        expect = [ZERO] * dim2
        for j in range(n):
            c = pinv[i, j]
            if c:
                for t, v in enumerate(rt_classes[j]):
                    expect[t] += c * v
        if zs_xi != tuple(expect):
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
    what = symmetrize(data.w, data.twist)
    ext = skew_extend(cert.algebra, data.twist)
    dq = derivation_quotient(what, cert.gldim - 1, ext.algebra.names)
    return dq.relations == ext.algebra.relations
