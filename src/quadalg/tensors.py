"""Tensor-power coordinates: words, tensor elements, slot maps, contractions.

A degree-d tensor over an n-dimensional space is stored as a sorted tuple of
(word, coefficient) pairs, where a word is a tuple of d letter indices.
Words are identified with flat coordinates through the big-endian base-n
expansion, so the induced coordinate order is lexicographic on words; a
tensor converts to and from the sparse {word index: coefficient} map of
those coordinates (`to_sparse_map`, `from_sparse`), the only form a
word-coordinate vector takes in this package.  A linear map of the
degree-one space is a plain Matrix in column convention: column j holds
the coordinates of the image of letter j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import LinAlgError, Matrix, ONE, Subspace, Vec, ZERO

Word = tuple[int, ...]


def word_to_index(word: Word, n: int) -> int:
    idx = 0
    for letter in word:
        idx = idx * n + letter
    return idx


def index_to_word(idx: int, n: int, degree: int) -> Word:
    out = [0] * degree
    for pos in range(degree - 1, -1, -1):
        idx, out[pos] = divmod(idx, n)
    return tuple(out)


@dataclass(frozen=True)
class Tensor:
    """An element of the degree-th tensor power of an n-dim space."""

    degree: int
    ambient: int
    terms: tuple[tuple[Word, Fraction], ...]

    @staticmethod
    def make(degree: int, ambient: int, terms) -> "Tensor":
        acc: dict[Word, Fraction] = {}
        for word, coeff in (terms.items() if isinstance(terms, dict) else terms):
            c = Fraction(coeff)
            if not c:
                continue
            w = tuple(word)
            if len(w) != degree or any(not 0 <= l < ambient for l in w):
                raise LinAlgError(f"bad word {w} for degree {degree} over n={ambient}")
            nv = acc.get(w, ZERO) + c
            if nv:
                acc[w] = nv
            else:
                acc.pop(w, None)
        return Tensor(degree, ambient, tuple(sorted(acc.items())))

    @staticmethod
    def zero(degree: int, ambient: int) -> "Tensor":
        return Tensor(degree, ambient, ())

    @staticmethod
    def basis(word: Word, ambient: int) -> "Tensor":
        return Tensor.make(len(word), ambient, [(tuple(word), ONE)])

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "Tensor") -> "Tensor":
        self._check_shape(other)
        acc = dict(self.terms)
        for w, c in other.terms:
            nv = acc.get(w, ZERO) + c
            if nv:
                acc[w] = nv
            else:
                acc.pop(w, None)
        return Tensor(self.degree, self.ambient, tuple(sorted(acc.items())))

    def sub(self, other: "Tensor") -> "Tensor":
        return self.add(other.scale(-1))

    def scale(self, k) -> "Tensor":
        k = Fraction(k)
        if not k:
            return Tensor.zero(self.degree, self.ambient)
        return Tensor(self.degree, self.ambient,
                      tuple((w, k * c) for w, c in self.terms))

    def tensor(self, other: "Tensor") -> "Tensor":
        if self.ambient != other.ambient:
            raise LinAlgError("ambient mismatch in tensor product")
        acc: dict[Word, Fraction] = {}
        for w1, c1 in self.terms:
            for w2, c2 in other.terms:
                w = w1 + w2
                nv = acc.get(w, ZERO) + c1 * c2
                if nv:
                    acc[w] = nv
                else:
                    acc.pop(w, None)
        return Tensor(self.degree + other.degree, self.ambient,
                      tuple(sorted(acc.items())))

    def to_sparse_map(self) -> dict[int, Fraction]:
        n = self.ambient
        return {word_to_index(w, n): c for w, c in self.terms}

    @staticmethod
    def from_sparse(pairs, degree: int, ambient: int) -> "Tensor":
        """The tensor with the given (word index, coefficient) pairs."""
        terms = sorted((index_to_word(i, ambient, degree), Fraction(c))
                       for i, c in pairs if c)
        return Tensor(degree, ambient, tuple(terms))

    def _check_shape(self, other: "Tensor") -> None:
        if self.degree != other.degree or self.ambient != other.ambient:
            raise LinAlgError("tensor shape mismatch")


def apply_slotwise(maps, t: Tensor) -> Tensor:
    """Apply per-slot degree-one maps (matrices in column convention: column
    j is the image of letter j) to a tensor; None means identity."""
    maps = tuple(maps)
    if len(maps) != t.degree:
        raise LinAlgError("slot count does not match tensor degree")
    acc: dict[Word, Fraction] = {}
    for word, coeff in t.terms:
        partial: list[tuple[Word, Fraction]] = [((), coeff)]
        for letter, m in zip(word, maps):
            if m is None:
                partial = [(w + (letter,), c) for w, c in partial]
                continue
            col = m.col(letter)
            nxt: list[tuple[Word, Fraction]] = []
            for w, c in partial:
                for i, a in enumerate(col):
                    if a:
                        nxt.append((w + (i,), c * a))
            partial = nxt
            if not partial:
                break
        for w, c in partial:
            nv = acc.get(w, ZERO) + c
            if nv:
                acc[w] = nv
            else:
                acc.pop(w, None)
    return Tensor(t.degree, t.ambient, tuple(sorted(acc.items())))


def tau(d: int, k: int, t: Tensor) -> Tensor:
    """Cycle the first slot of a degree-d tensor into position k.

    On words: (w_0, w_1, ..., w_{d-1}) -> (w_1, ..., w_k, w_0, w_{k+1}, ...).
    k = d-1 is the full one-step rotation; composing the k = d-1 map d times
    gives the identity.
    """
    if t.degree != d:
        raise LinAlgError("degree mismatch in cyclic slot move")
    if not 0 <= k <= d - 1:
        raise LinAlgError("slot position out of range")
    terms = []
    for w, c in t.terms:
        terms.append((w[1:k + 1] + (w[0],) + w[k + 1:], c))
    return Tensor.make(d, t.ambient, terms)


def contract_left(psi: Vec, t: Tensor) -> Tensor:
    """Pair a functional (coordinate row) against the first slot."""
    terms = []
    for w, c in t.terms:
        a = psi[w[0]]
        if a:
            terms.append((w[1:], c * a))
    return Tensor.make(t.degree - 1, t.ambient, terms)


def contract_right(t: Tensor, psi: Vec) -> Tensor:
    """Pair a functional (coordinate row) against the last slot."""
    terms = []
    for w, c in t.terms:
        a = psi[w[-1]]
        if a:
            terms.append((w[:-1], c * a))
    return Tensor.make(t.degree - 1, t.ambient, terms)


def preserves_subspace(phi: Matrix, space: Subspace, degree: int) -> bool:
    """Whether the slotwise extension of phi maps the subspace into itself."""
    n = phi.cols
    if space.ambient != n ** degree:
        raise LinAlgError("subspace ambient does not match the tensor degree")
    ext = tuple([phi] * degree)
    for row in space.rows:
        img = apply_slotwise(ext, Tensor.from_sparse(row, degree, n))
        if not space.contains(img.to_sparse_map()):
            return False
    return True
