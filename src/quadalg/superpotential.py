"""Twisted superpotentials: cyclicity tests, extraction from a regularity
certificate, one-letter symmetrization, and derivation quotients.

A superpotential is a vector of length-d words, held like every word
vector as a sparse {word index: value} map; its degree d is passed along
with it.  Such a w is a twisted superpotential for a degree-one map s when
rotating the first slot to the end after applying s to it reproduces w up to
the sign (-1)^(d-1).  Contracting such a w with k dual letters on the left
yields the relation space of its derivation quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .linalg import (ConsistencyError, LinAlgError, Matrix, ONE, Subspace, ZERO,
                     solve_square)
from .quadratic import QuadraticAlgebra, koszul_component
from .regular import RegularityCertificate, nakayama_of_algebra
from .tensors import (add_into, apply_slotwise, contract_left, contract_right,
                      index_to_word, tau, word_to_index)


def is_twisted_superpotential(w: dict[int, Fraction], d: int,
                              sigma: Matrix) -> bool:
    """Whether w, of degree d, equals its sign-adjusted twisted rotation;
    zero entries of w are ignored."""
    n = sigma.cols
    rotated = tau(apply_slotwise([sigma] + [None] * (d - 1), w, n), d, d - 1, n)
    sign = (-1) ** (d - 1)
    return {i: sign * c for i, c in rotated.items()} == {
        i: c for i, c in w.items() if c}


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


# bounded at over twice the 7 certificates one corpus sweep extracts from;
# keyed on the certificate itself, which regular.as_regular_certificate
# hands out
@lru_cache(maxsize=16)
def extract_superpotential(cert: RegularityCertificate, /) -> SuperpotentialData:
    """The superpotential of cert and its twist, computed once per
    certificate and shared by every caller."""
    d = cert.gldim
    alg = cert.algebra
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
    twist = y.transpose().scale(Fraction((-1) ** (d + 1)))
    if twist != nakayama_of_algebra(cert):
        raise ConsistencyError("contraction twist disagrees with the pairing route")
    if not is_twisted_superpotential(w, d, twist):
        raise ConsistencyError("extracted tensor is not twisted-cyclic")
    return SuperpotentialData(w, twist)


def symmetrize(w: dict[int, Fraction], d: int,
               sigma: Matrix) -> dict[int, Fraction]:
    """Raise a twisted superpotential of degree d by one letter appended as
    a new last generator, producing an untwisted one of degree d + 1.

    The new letter is fixed by the extended twist.  The output is the
    alternating sum over slot positions of the new letter, with the twist
    applied to everything the letter moved past.  When the input is
    twisted-cyclic for sigma the output is checked to be cyclic for the
    identity.
    """
    n = sigma.cols
    m = n + 1
    ext_rows = [tuple(sigma.entries[i]) + (ZERO,) for i in range(n)]
    ext_rows.append(tuple(ZERO for _ in range(n)) + (ONE,))
    sigma_ext = Matrix.from_rows(ext_rows, m)
    # the new letter followed by w, over m letters
    base = {word_to_index((n,) + index_to_word(idx, n, d), m): c
            for idx, c in w.items()}
    acc: dict[int, Fraction] = {}
    for i in range(d + 1):
        slots = [None] + [sigma_ext] * i + [None] * (d - i)
        sign = (-1) ** i
        for idx, c in tau(apply_slotwise(slots, base, m), d + 1, i, m).items():
            add_into(acc, idx, sign * c)
    if (is_twisted_superpotential(w, d, sigma)
            and not is_twisted_superpotential(acc, d + 1, Matrix.identity(m))):
        raise ConsistencyError("symmetrized tensor fails plain cyclicity")
    return acc


def derivation_quotient(w: dict[int, Fraction], order: int,
                        names) -> QuadraticAlgebra:
    """Quadratic algebra whose relations are the order-fold left contractions
    of w, a vector of words of length order + 2; requires order >= 0."""
    names = tuple(names)
    n = len(names)
    if order < 0 or (w and max(w) >= n ** (order + 2)):
        raise LinAlgError("contraction order must be nonnegative and leave "
                          "degree-two relations")
    grouped: dict[int, dict[int, Fraction]] = {}
    for idx, c in w.items():
        head, tail = divmod(idx, n * n)
        grouped.setdefault(head, {})[tail] = c
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
    coords = prod.coordinates(data.w)
    if coords is None:
        raise ConsistencyError("superpotential is not a relation-times-factor sum")
    rows = [coords[a * lower.dim:(a + 1) * lower.dim]
            for a in range(alg.relations.dim)]
    coupling = Matrix.from_rows(rows, lower.dim)
    return PresentationReport(matches, coupling.is_invertible())
