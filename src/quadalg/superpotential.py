"""Twisted superpotentials: cyclicity tests, extraction from a regularity
certificate, one-letter symmetrization, and derivation quotients.

A degree-d tensor w is a twisted superpotential for a degree-one map s when
rotating the first slot to the end after applying s to it reproduces w up to
the sign (-1)^(d-1).  Contracting such a w with k dual letters on the left
yields the relation space of its derivation quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import (ConsistencyError, LinAlgError, Matrix, ONE, Subspace, ZERO,
                     unit_vector)
from .quadratic import QuadraticAlgebra, koszul_component
from .regular import RegularityCertificate, nakayama_of_algebra
from .tensors import Tensor, apply_slotwise, contract_left, contract_right, tau


def twist_defect(w: Tensor, sigma: Matrix) -> Tensor:
    """w minus its sign-adjusted twisted rotation; zero iff w is twisted-cyclic."""
    d = w.degree
    if sigma.cols != w.ambient:
        raise LinAlgError("twist acts on the wrong space")
    rotated = tau(d, d - 1, apply_slotwise([sigma] + [None] * (d - 1), w))
    return w.sub(rotated.scale(Fraction((-1) ** (d - 1))))


def is_twisted_superpotential(w: Tensor, sigma: Matrix) -> bool:
    return twist_defect(w, sigma).is_zero()


@dataclass(frozen=True)
class SuperpotentialData:
    """Canonical superpotential of a certified algebra and its twist.

    w spans the top Koszul component.  twist is the Nakayama map, recovered
    from the matrices of the left and right contractions of w by each dual
    letter, in the basis of the next component down, and cross-checked
    against the pairing route.
    """

    w: Tensor
    twist: Matrix


def extract_superpotential(cert: RegularityCertificate) -> SuperpotentialData:
    d = cert.gldim
    alg = cert.algebra
    n = alg.n
    top = koszul_component(alg, d)
    if top.dim != 1:
        raise ConsistencyError(f"top Koszul component has dimension {top.dim}, not 1")
    w = Tensor.from_sparse(top.rows[0], d, n)
    sub = koszul_component(alg, d - 1)
    left_rows = []
    right_cols = []
    for i in range(n):
        lc = sub.coordinates(contract_left(unit_vector(n, i), w).to_sparse_map())
        if lc is None:
            raise ConsistencyError("left contraction leaves the Koszul component")
        left_rows.append(lc)
    for j in range(n):
        rc = sub.coordinates(contract_right(w, unit_vector(n, j)).to_sparse_map())
        if rc is None:
            raise ConsistencyError("right contraction leaves the Koszul component")
        right_cols.append(rc)
    left = Matrix.from_rows(left_rows, sub.dim)
    right = Matrix.from_rows(zip(*right_cols), n)
    twist = (right.transpose() @ left.inverse()).scale(Fraction((-1) ** (d + 1)))
    if twist != nakayama_of_algebra(cert):
        raise ConsistencyError("contraction twist disagrees with the pairing route")
    if not is_twisted_superpotential(w, twist):
        raise ConsistencyError("extracted tensor is not twisted-cyclic")
    return SuperpotentialData(w, twist)


def symmetrize(w: Tensor, sigma: Matrix) -> Tensor:
    """Raise a twisted superpotential by one letter appended as a new last
    generator, producing an untwisted one.

    The new letter is fixed by the extended twist.  The output is the
    alternating sum over slot positions of the new letter, with the twist
    applied to everything the letter moved past.  When the input is
    twisted-cyclic for sigma the output is checked to be cyclic for the
    identity.
    """
    d = w.degree
    n = w.ambient
    ext_rows = [tuple(sigma.entries[i]) + (ZERO,) for i in range(n)]
    ext_rows.append(tuple(ZERO for _ in range(n)) + (ONE,))
    sigma_ext = Matrix.from_rows(ext_rows, n + 1)
    base = Tensor.make(1, n + 1, [((n,), ONE)]).tensor(
        Tensor(d, n + 1, w.terms))
    acc = Tensor.zero(d + 1, n + 1)
    for i in range(d + 1):
        slots = [None] + [sigma_ext] * i + [None] * (d - i)
        term = tau(d + 1, i, apply_slotwise(slots, base))
        acc = acc.add(term.scale(Fraction((-1) ** i)))
    if (is_twisted_superpotential(w, sigma)
            and not is_twisted_superpotential(acc, Matrix.identity(n + 1))):
        raise ConsistencyError("symmetrized tensor fails plain cyclicity")
    return acc


def derivation_quotient(w: Tensor, order: int, names) -> QuadraticAlgebra:
    """Quadratic algebra whose relations are the order-fold left contractions
    of w; requires order >= 0 and w.degree - order == 2."""
    if order < 0 or w.degree - order != 2:
        raise LinAlgError("contraction order must be nonnegative and leave "
                          "degree-two relations")
    n = w.ambient
    names = tuple(names)
    if len(names) != n:
        raise LinAlgError("name count does not match the tensor ambient")
    grouped: dict[tuple, dict[int, Fraction]] = {}
    for word, c in w.terms:
        head = word[:order]
        tail = word[-2] * n + word[-1]
        bucket = grouped.setdefault(head, {})
        bucket[tail] = bucket.get(tail, ZERO) + c
    return QuadraticAlgebra(names, Subspace.from_spanning(grouped.values(), n * n))


@dataclass(frozen=True)
class PresentationReport:
    """Comparison of an algebra against its superpotential presentation."""

    matches_relations: bool
    coupling_invertible: bool

    @property
    def passed(self) -> bool:
        return self.matches_relations and self.coupling_invertible


def verify_superpotential_presentation(cert: RegularityCertificate,
                                       data: SuperpotentialData) -> PresentationReport:
    """Check the derivation quotient of the superpotential extracted from
    cert returns the original relations, and solve w as a
    relation-times-factor sum.

    The coupling matrix L satisfies w = sum L[a][b] r_a (x) c_b over the
    canonical relation basis r and the basis c of the Koszul component two
    degrees down; it must be invertible.
    """
    alg = cert.algebra
    d = cert.gldim
    dq = derivation_quotient(data.w, d - 2, alg.names)
    matches = dq.relations == alg.relations
    lower = koszul_component(alg, d - 2)
    prod = alg.relations.kron(lower)
    coords = prod.coordinates(data.w.to_sparse_map())
    if coords is None:
        raise ConsistencyError("superpotential is not a relation-times-factor sum")
    rows = [coords[a * lower.dim:(a + 1) * lower.dim]
            for a in range(alg.relations.dim)]
    coupling = Matrix.from_rows(rows, lower.dim)
    return PresentationReport(matches, coupling.is_invertible())
