"""Quadratic algebras T(V)/(R): duals, graded dimensions, Koszul data,
and truncated multiplication tables.

An algebra is a tuple of generator names plus a canonical subspace R of the
degree-two word coordinates.  All degreewise data comes from the Koszul
components K_k, cached and keyed on the presentation: the degree-k piece of
T(V)/(R) is the linear dual of K_k of the quadratic dual
(Polishchuk-Positselski, Quadratic Algebras, Ch. 1).

K_k is computed in integers, as an integer kernel over K_{k-1} (x) V, and
becomes a canonical Fraction subspace only once, at the end.  A truncation
of T(V)/(R) is one object, a TruncatedAlgebra: the GradedFDAlgebra whose
sparse structure cells are read off the class coordinates of product
words, together with those classes and its basis words (`words`), the
only names its basis elements have.  No component is built on more than
MAX_WORDS = 10^6 coordinate words: asking for one raises
ResourceLimitError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .frobenius import GradedFDAlgebra
from .linalg import (LinAlgError, Matrix, ResourceLimitError, Subspace, Vec,
                     ZERO, int_kernel)
from .tensors import Tensor, apply_slotwise, index_to_word, preserves_subspace

# the most coordinate words n**m a Koszul component may have
MAX_WORDS = 10 ** 6


@dataclass(frozen=True)
class QuadraticAlgebra:
    """A quadratic presentation: generator names and the relation subspace."""

    names: tuple[str, ...]
    relations: Subspace

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise LinAlgError("at least one generator is required")
        if self.relations.ambient != n * n:
            raise LinAlgError("relation subspace must live in degree-two words")

    @property
    def n(self) -> int:
        return len(self.names)

    @staticmethod
    def from_relation_tensors(names, tensors) -> "QuadraticAlgebra":
        names = tuple(names)
        n = len(names)
        for t in tensors:
            if t.degree != 2 or t.ambient != n:
                raise LinAlgError("relations must be degree-two tensors over the generators")
        space = Subspace.from_spanning([t.to_sparse_map() for t in tensors], n * n)
        return QuadraticAlgebra(names, space)

    def relation_tensors(self) -> tuple[Tensor, ...]:
        return tuple(Tensor.from_sparse(r, 2, self.n) for r in self.relations.rows)

    @cached_property
    def dual(self) -> "QuadraticAlgebra":
        """The quadratic algebra on the dual space with relations R-perp,
        computed once per presentation object.

        Dual coordinates pair with word coordinates by the plain dot
        product, slot by slot with no sign.
        """
        return QuadraticAlgebra(dual_names(self.names),
                                self.relations.annihilator())


def dual_names(names) -> tuple[str, ...]:
    out = tuple(s[:-1] if s.endswith("*") else s + "*" for s in names)
    if len(set(out)) != len(out):
        out = tuple(s + "*" for s in names)
    return out


def graded_dims(alg: QuadraticAlgebra, bound: int) -> tuple[int, ...]:
    """Dimensions of the graded components of T(V)/(R) up to the bound:
    the degree-k piece is dual to the Koszul component K_k of the dual."""
    return tuple(koszul_component(alg.dual, k).dim for k in range(bound + 1))


@lru_cache(maxsize=None)
def _koszul_component(alg: QuadraticAlgebra, m: int) -> Subspace:
    n = alg.n
    if n ** m > MAX_WORDS:
        raise ResourceLimitError(
            f"{n}^{m} coordinate words exceed the cap of {MAX_WORDS}")
    if m < 2:
        return Subspace.full(n ** m)
    if m == 2:
        return alg.relations
    # all arithmetic below is on content-free integer rows; rescaling the
    # basis of K_{m-1} or of R-perp does not change the span computed
    prev = _koszul_component(alg, m - 1).int_rows
    # the entries f[a, l] of the R-perp basis, grouped by their first letter a
    perp = [[] for _ in range(n)]
    for fi, f in enumerate(alg.dual.relations.int_rows):
        for c, v in f:
            a, l = divmod(c, n)
            perp[a].append((fi, l, v))
    # x = sum c[s, l] b_s (x) e_l over the basis b_s of K_{m-1} lies in
    # V^{m-2} (x) R exactly when it pairs to zero with u (x) f for every
    # word u of length m-2 and every f in R-perp
    eqs: dict[tuple[int, int], dict[int, int]] = {}
    for s, b in enumerate(prev):
        for w, val in b:
            u, a = divmod(w, n)
            for fi, l, v in perp[a]:
                eq = eqs.setdefault((u, fi), {})
                eq[s * n + l] = eq.get(s * n + l, 0) + val * v
    rows = []
    for c in int_kernel(eqs.values(), len(prev) * n):
        x: dict[int, int] = {}
        for j, cj in c.items():
            s, l = divmod(j, n)
            for w, val in prev[s]:
                x[w * n + l] = x.get(w * n + l, 0) + cj * val
        rows.append(x)
    return Subspace.from_int_rows(rows, n ** m)


def koszul_component(alg: QuadraticAlgebra, m: int) -> Subspace:
    """The degree-m piece of the Koszul complex: all words landing in R
    at every adjacent slot pair, as a kernel over K_{m-1} (x) V.  Raises
    ResourceLimitError beyond MAX_WORDS coordinate words."""
    return _koszul_component(alg, m)


@dataclass(frozen=True)
class KoszulCertificate:
    """Outcome of the degree-bounded numeric Koszulness checks.

    This is evidence up to the bound, not a proof: both checks compare
    finitely many graded dimensions.
    """

    bound: int
    dims: tuple[int, ...]
    dual_dims: tuple[int, ...]
    component_dims: tuple[int, ...]
    component_mismatches: tuple[int, ...]
    euler_failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.component_mismatches and not self.euler_failures


def numeric_koszul_certificate(alg: QuadraticAlgebra, bound: int) -> KoszulCertificate:
    """Check Koszul-type numerics up to the bound.

    Two families of identities: the dimension of the degree-m Koszul
    component must equal the degree-m dimension of the dual algebra, and the
    Hilbert series of algebra and dual must multiply to 1 after the sign
    flip, i.e. the alternating convolution of the two dimension sequences
    vanishes in every positive degree up to the bound.  The first holds for
    every quadratic algebra by duality, so it is only a self-check.
    """
    dims = graded_dims(alg, bound)
    dual_dims = graded_dims(alg.dual, bound)
    component_dims = tuple(koszul_component(alg, m).dim
                           for m in range(bound + 1))
    mism = tuple(m for m in range(bound + 1) if component_dims[m] != dual_dims[m])
    euler = []
    for k in range(1, bound + 1):
        total = sum((-1) ** j * dims[k - j] * dual_dims[j] for j in range(k + 1))
        if total != 0:
            euler.append(k)
    return KoszulCertificate(bound, dims, dual_dims, component_dims,
                             mism, tuple(euler))


class TruncatedAlgebra(GradedFDAlgebra):
    """T(V)/(R) up to a degree bound, as the GradedFDAlgebra it truncates to.

    The degree-k piece is paired with the Koszul component K_k of the dual,
    its linear dual inside the degree-k word coordinates.  In echelon form
    read from the last column, K_k has one basis row per pivot word: those
    words are the degree-k basis, and row t read on any word is coordinate t
    of that word's class.  The structure table follows cell by cell: the
    product of basis words w_a and w_b is the word w_a w_b, whose class is
    read off directly.  Unit and associativity are checked as for any
    GradedFDAlgebra.
    """

    def __init__(self, alg: QuadraticAlgebra, bound: int):
        self.algebra = alg
        n = alg.n
        self.components = tuple(koszul_component(alg.dual, k)
                                for k in range(bound + 1))
        words = []
        classes = []
        for k, comp in enumerate(self.components):
            top = n ** k - 1
            flipped = Subspace.from_int_rows(
                [{top - c: v for c, v in row} for row in comp.int_rows], top + 1)
            words.append(tuple(top - p for p in flipped.pivots[::-1]))
            # word -> [(t, coordinate t of its class)]
            cls: dict[int, list[tuple[int, Fraction]]] = {}
            for t, row in enumerate(flipped.rows[::-1]):
                for c, v in row:
                    cls.setdefault(top - c, []).append((t, v))
            classes.append({w: tuple(ts) for w, ts in cls.items()})
        self.words = tuple(words)
        self.classes = tuple(classes)
        mult = {}
        for i in range(bound + 1):
            for j in range(bound + 1 - i):
                stride = n ** j
                cls = classes[i + j]
                mult[(i, j)] = tuple(
                    tuple(cls.get(wa * stride + wb, ()) for wb in words[j])
                    for wa in words[i])
        super().__init__([len(w) for w in words], mult)

    def reduce_sparse(self, k: int, sparse) -> Vec:
        out = [ZERO] * self.dims[k]
        for w, c in sparse.items():
            if c:
                for t, v in self.classes[k].get(w, ()):
                    out[t] += c * v
        return tuple(out)

    def lift_sparse(self, k: int, coords) -> dict[int, Fraction]:
        return {w: Fraction(c) for w, c in zip(self.words[k], coords) if c}

    def class_from_pairings(self, k: int, rows, values) -> Vec:
        """The degree-k class pairing as prescribed against given rows, each
        a sparse {word index: value} map or its pairs.

        The pairing is the coordinate dot product.  Every row must lie in the
        Koszul component paired with this degree, so that the values only
        depend on the class; a class then pairs through its basis words.
        """
        rows = [dict(r) for r in rows]
        if not all(self.components[k].contains(r) for r in rows):
            raise LinAlgError("pairing values are not class functions")
        on_basis = Matrix.from_rows([[r.get(w, ZERO) for w in self.words[k]]
                                     for r in rows], self.dims[k])
        cls = on_basis.solve(values)
        if cls is None:
            raise LinAlgError("no element attains the prescribed pairings")
        return cls

    def automorphism(self, phi: Matrix) -> tuple[Matrix, ...]:
        """Extend a relation-preserving degree-one map to every degree, one
        matrix per degree."""
        if not preserves_subspace(phi, self.algebra.relations, 2):
            raise LinAlgError("map does not preserve the relation subspace")
        n = self.algebra.n
        mats = []
        for k in range(self.length + 1):
            cols = []
            for w in self.words[k]:
                img = apply_slotwise([phi] * k,
                                     Tensor.basis(index_to_word(w, n, k), n))
                cols.append(self.reduce_sparse(k, img.to_sparse_map()))
            mats.append(Matrix.from_rows(cols, self.dims[k]).transpose())
        return tuple(mats)


@lru_cache(maxsize=None)
def _truncated(alg: QuadraticAlgebra, bound: int) -> TruncatedAlgebra:
    return TruncatedAlgebra(alg, bound)


def truncated_structure(alg: QuadraticAlgebra, bound: int) -> TruncatedAlgebra:
    return _truncated(alg, bound)
